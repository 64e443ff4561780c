package server

import (
	"errors"
	"fmt"

	"structix/internal/graph"
	"structix/internal/opscript"
	"structix/internal/repl"
	"structix/internal/shard"
)

// Wire DTOs shared by the HTTP server and internal/client. Everything is
// plain encoding/json over the opscript vocabulary (see opscript's JSON
// format), so a curl invocation and the Go client speak the same bytes.

// QueryRequest is the body of POST /v1/query.
type QueryRequest struct {
	// Expr is a path expression, e.g. "/site//person/name".
	Expr string `json:"expr"`
	// CountOnly asks for the exact result size without materializing the
	// node list (served from extent sizes alone when possible).
	CountOnly bool `json:"count_only,omitempty"`
	// Limit truncates the returned node list (0 = no limit). Count still
	// reports the full result size.
	Limit int `json:"limit,omitempty"`
	// MinEpoch is the read-your-writes bound: serve only once the store's
	// replication epoch (the journal seq in QueryReply.Seq / UpdateReply.Seq)
	// has reached this value, waiting up to WaitMs for a lagging replica to
	// catch up. 0 reads whatever is published. Unsharded stores only.
	MinEpoch uint64 `json:"min_epoch,omitempty"`
	// WaitMs bounds the MinEpoch wait (default 1000, capped at 30000);
	// expiry is a 504 with code "replica_stale".
	WaitMs int `json:"wait_ms,omitempty"`
}

// QueryReply is the body of a successful query.
type QueryReply struct {
	// Epoch is the commit epoch the answer was served from.
	Epoch uint64 `json:"epoch"`
	// Count is the exact result size.
	Count int `json:"count"`
	// Nodes is the sorted matched node list (absent for CountOnly, and
	// truncated to Limit when set).
	Nodes []graph.NodeID `json:"nodes,omitempty"`
	// Truncated reports that Nodes was cut short by Limit.
	Truncated bool `json:"truncated,omitempty"`
	// Cached reports that the answer was served from the result cache
	// (same epoch, same canonical expression, footprint untouched since);
	// on a sharded server, that every shard's section was.
	Cached bool `json:"cached,omitempty"`
	// Epochs is the per-shard epoch vector on a sharded server (absent on
	// one shard): Epochs[s] is shard s's publication count when the answer
	// was assembled. Advisory — the vector is read alongside the pinned
	// snapshots, not atomically with them.
	Epochs []uint64 `json:"epochs,omitempty"`
	// Seq is the replication epoch — the journal seq the served snapshot is
	// guaranteed to cover (read before the snapshot was pinned, so it never
	// overstates). 0 on in-memory and sharded stores. Feed it back as
	// MinEpoch on another replica for read-your-reads.
	Seq uint64 `json:"seq,omitempty"`
}

// UpdateRequest is the body of POST /v1/update: a script of operations in
// the opscript JSON vocabulary. A request consisting solely of edge
// operations (insert/delete) is applied atomically — all ops commit in one
// group-commit window or none do — and may be coalesced with concurrent
// requests into one ApplyBatch. A request containing node or subtree
// operations is applied alone with script (stop-at-first-error) semantics.
//
// On a sharded server atomicity is per shard: an edge request whose ops
// span shards is split into per-shard sub-batches, each committing or
// rejecting as a unit through its own pipeline. A rejection reply then
// carries Applied = the ops that committed on other shards (always 0 on
// one shard). Node/subtree scripts must route whole to a single shard;
// a script whose ops disagree is refused with cause "cross_shard", as is
// any single edge op whose endpoints live on different shards.
type UpdateRequest struct {
	Ops []opscript.Op `json:"ops"`
}

// UpdateReply is the body of a successful update.
type UpdateReply struct {
	// Epoch is the commit epoch that made the update visible to queries.
	Epoch    uint64         `json:"epoch"`
	Applied  int            `json:"applied"`
	Inserted int            `json:"inserted,omitempty"`
	Deleted  int            `json:"deleted,omitempty"`
	NewNodes []graph.NodeID `json:"new_nodes,omitempty"`
	Removed  int            `json:"removed,omitempty"`
	// BatchSize is the total op count of the group commit that carried
	// this request (≥ len(Ops) when coalesced with neighbors).
	BatchSize int `json:"batch_size,omitempty"`
	// Seq is the replication epoch after this update committed: the journal
	// seq of its record (0 on in-memory and sharded stores). Feed it back
	// as QueryRequest.MinEpoch on a replica for read-your-writes.
	Seq uint64 `json:"seq,omitempty"`
}

// Error codes carried by ErrorReply.Code.
const (
	CodeBadRequest    = "bad_request"    // malformed body, unparsable expression (400)
	CodeBatchRejected = "batch_rejected" // atomic edge batch refused; nothing applied (409)
	CodeOpFailed      = "op_failed"      // script op failed; earlier ops applied (409)
	CodeOverloaded    = "overloaded"     // admission queue full; retry later (429)
	CodeShuttingDown  = "shutting_down"  // server is draining (503)
	CodeCanceled      = "canceled"       // request context expired during evaluation (499-ish, reported as 503)
	CodeNotLeader     = "not_leader"     // write sent to a read replica; ErrorReply.Leader names the leader (421)
	CodeReplicaStale  = "replica_stale"  // MinEpoch not reached within WaitMs (504)
)

// Cause strings for ErrorReply.Cause, round-tripping the graph and shard
// sentinel errors across the wire.
const (
	causeEdgeExists = "edge_exists"
	causeNoEdge     = "no_edge"
	causeSelfLoop   = "self_loop"
	causeDeadNode   = "dead_node"
	causeCrossShard = "cross_shard"
)

// ErrorReply is the body of every non-2xx response. For a rejected atomic
// edge batch (Code == CodeBatchRejected) OpIndex, Op and Cause round-trip
// the in-process *graph.BatchError: the op index is the position in the
// *request's* ops slice (re-based from the coalesced group commit), and
// Cause names the sentinel error, so a client can reconstruct a typed
// error with errors.Is fidelity. CodeOpFailed carries the same fields for
// a failed script op, plus Applied for how far the script got.
type ErrorReply struct {
	Error   string       `json:"error"`
	Code    string       `json:"code"`
	OpIndex *int         `json:"op_index,omitempty"`
	Op      *opscript.Op `json:"op,omitempty"`
	Cause   string       `json:"cause,omitempty"`
	Applied int          `json:"applied,omitempty"`
	// RetryAfterSeconds mirrors the Retry-After header on 429/503.
	RetryAfterSeconds int `json:"retry_after_seconds,omitempty"`
	// Leader is the leader's base URL on a not_leader rejection: this
	// server is a read replica and the write belongs there.
	Leader string `json:"leader,omitempty"`
}

// StatsReply is the body of GET /v1/stats. On a sharded server the
// graph-shape, queue, commit and durability numbers are aggregated across
// shards (counts and counters sum; the shared root replica counts once in
// Nodes; journal seqs sum because each shard numbers its own journal),
// and ShardStats breaks the per-shard slice out.
type StatsReply struct {
	Nodes  int `json:"nodes"`
	Edges  int `json:"edges"`
	INodes int `json:"inodes"`

	Epoch         uint64 `json:"epoch"`
	SnapshotAgeMs int64  `json:"snapshot_age_ms"`

	// Shards is the commit-pipeline count (1 for an unsharded store);
	// ShardStats is present only when it exceeds 1.
	Shards     int               `json:"shards,omitempty"`
	ShardStats []ShardStatsReply `json:"shard_stats,omitempty"`

	QueueDepth int `json:"queue_depth"`
	QueueCap   int `json:"queue_cap"`
	// How long an admitted update waited for its commit window to start
	// applying: the power-of-2 histogram bucket bound holding the quantile.
	QueueWaitP50Us int64 `json:"queue_wait_p50_us"`
	QueueWaitP99Us int64 `json:"queue_wait_p99_us"`

	Batches       int64   `json:"batches"`
	BatchedOps    int64   `json:"batched_ops"`
	MeanBatchSize float64 `json:"mean_batch_size"`

	Queries  int64 `json:"queries"`
	Updates  int64 `json:"updates"`
	Rejected int64 `json:"rejected"`

	// Result-cache counters (zero when the cache is disabled).
	CacheHits        int64   `json:"cache_hits"`
	CacheMisses      int64   `json:"cache_misses"`
	CacheHitRate     float64 `json:"cache_hit_rate"`
	CacheEntries     int     `json:"cache_entries"`
	CacheInvalidated int64   `json:"cache_invalidated"`
	// CacheFootprintSlots is the total length of the live entries'
	// invalidation footprints (4 bytes per slot of cache heap).
	CacheFootprintSlots int64 `json:"cache_footprint_slots"`
	// CompiledPrograms is the number of cached compiled automata.
	CompiledPrograms int `json:"compiled_programs"`

	// Extent storage of the current snapshot (summed across shards), by
	// representation: dense []NodeID slices vs compressed block
	// encodings. Under the dense codec EncodedBytes is 0; under the
	// compressed codec DenseBytes counts the per-extent density
	// fallbacks that stayed dense.
	ExtentCodec        string `json:"extent_codec"`
	ExtentDenseBytes   int64  `json:"extent_dense_bytes"`
	ExtentEncodedBytes int64  `json:"extent_encoded_bytes,omitempty"`

	// Durability counters from the store (see structix.DBStats). Durable
	// is false when the server fronts an in-memory DB; every other field
	// in the group is zero/absent then. DurableSeq lagging AppliedSeq is
	// normal under fsync policies other than always — the gap is the
	// window of acknowledged-but-not-yet-fsynced records.
	Durable          bool   `json:"durable"`
	FsyncPolicy      string `json:"fsync_policy,omitempty"`
	AppliedSeq       uint64 `json:"applied_seq,omitempty"`
	DurableSeq       uint64 `json:"durable_seq,omitempty"`
	SnapshotSeq      uint64 `json:"snapshot_seq,omitempty"`
	JournalSegments  int    `json:"journal_segments,omitempty"`
	JournalBytes     int64  `json:"journal_bytes,omitempty"`
	JournalSyncs     int64  `json:"journal_syncs,omitempty"`
	Compactions      int64  `json:"compactions,omitempty"`
	ReplayedRecords  int    `json:"replayed_records,omitempty"`
	TornBytesDropped int64  `json:"torn_bytes_dropped,omitempty"`
	// WriteError is the store's sticky journal failure ("" = none): the
	// store froze itself read-only after a journal append failed.
	WriteError string `json:"write_error,omitempty"`

	// Repl is the replication group: present on any durable unsharded
	// server (role "leader", with stream-serving counters) and on a read
	// replica (role "follower", with lag and reconnect counters).
	Repl *ReplStatsReply `json:"repl,omitempty"`

	UptimeMs int64 `json:"uptime_ms"`
}

// ReplStatsReply is the replication section of /v1/stats. Role is
// "leader" or "follower"; exactly the matching sub-struct is set (a
// follower also serves the stream endpoints for chained replication, so
// both can appear on one).
type ReplStatsReply struct {
	Role     string              `json:"role"`
	Leader   *repl.LeaderStats   `json:"leader,omitempty"`
	Follower *repl.FollowerStats `json:"follower,omitempty"`
}

// ShardStatsReply is one shard's slice of a sharded server's stats: its
// own epoch, graph shape, admission queue and journal positions.
type ShardStatsReply struct {
	Epoch      uint64 `json:"epoch"`
	Nodes      int    `json:"nodes"`
	INodes     int    `json:"inodes"`
	QueueDepth int    `json:"queue_depth"`
	AppliedSeq uint64 `json:"applied_seq,omitempty"`
	DurableSeq uint64 `json:"durable_seq,omitempty"`
}

// CauseString names err for the wire ("" when err is not one of the graph
// sentinels).
func CauseString(err error) string {
	switch {
	case errors.Is(err, graph.ErrEdgeExists):
		return causeEdgeExists
	case errors.Is(err, graph.ErrNoEdge):
		return causeNoEdge
	case errors.Is(err, graph.ErrSelfLoop):
		return causeSelfLoop
	case errors.Is(err, graph.ErrDeadNode):
		return causeDeadNode
	case errors.Is(err, shard.ErrCrossShard):
		return causeCrossShard
	}
	return ""
}

// CauseError maps a wire cause back to the graph sentinel it names, so
// errors.Is works on reconstructed errors; an unknown cause becomes an
// opaque error carrying the fallback message.
func CauseError(cause, fallback string) error {
	switch cause {
	case causeEdgeExists:
		return graph.ErrEdgeExists
	case causeNoEdge:
		return graph.ErrNoEdge
	case causeSelfLoop:
		return graph.ErrSelfLoop
	case causeDeadNode:
		return graph.ErrDeadNode
	case causeCrossShard:
		return shard.ErrCrossShard
	}
	if fallback == "" {
		fallback = "remote operation failed"
	}
	return errors.New(fallback)
}

// EdgeOpOf converts an edge-kind script op to the graph.EdgeOp ApplyBatch
// vocabulary; ok is false for node/subtree ops.
func EdgeOpOf(op opscript.Op) (graph.EdgeOp, bool) {
	switch op.Kind {
	case opscript.Insert:
		return graph.InsertOp(op.U, op.V, op.Edge), true
	case opscript.Delete:
		return graph.DeleteOp(op.U, op.V), true
	}
	return graph.EdgeOp{}, false
}

// ScriptOpOf is the inverse of EdgeOpOf: the opscript rendering of a
// graph.EdgeOp, used when a *graph.BatchError is sent over the wire.
func ScriptOpOf(op graph.EdgeOp) opscript.Op { return opscript.FromEdgeOp(op) }

// BatchErrorReply renders a rejected atomic batch as its wire form; the
// caller has already re-based OpIndex into the request's own ops slice.
func BatchErrorReply(be *graph.BatchError) ErrorReply {
	i := be.OpIndex
	op := ScriptOpOf(be.Op)
	return ErrorReply{
		Error:   be.Error(),
		Code:    CodeBatchRejected,
		OpIndex: &i,
		Op:      &op,
		Cause:   CauseString(be.Err),
	}
}

// BatchErrorOf reconstructs the in-process *graph.BatchError from its wire
// form: op index, op, and an errors.Is-compatible cause.
func BatchErrorOf(rep ErrorReply) (*graph.BatchError, error) {
	if rep.Code != CodeBatchRejected || rep.OpIndex == nil || rep.Op == nil {
		return nil, fmt.Errorf("server: reply is not a batch rejection (code %q)", rep.Code)
	}
	eop, ok := EdgeOpOf(*rep.Op)
	if !ok {
		return nil, fmt.Errorf("server: batch rejection names non-edge op %v", rep.Op.Kind)
	}
	return &graph.BatchError{OpIndex: *rep.OpIndex, Op: eop, Err: CauseError(rep.Cause, rep.Error)}, nil
}
