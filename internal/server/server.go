// Package server is the network serving layer: a stdlib-only HTTP server
// exposing path-expression queries and incremental updates over a
// snapshot-served 1-index.
//
// Reads (POST /v1/query) are served lock-free off the pinned epoch
// snapshot — one atomic pointer load per request, never blocked by
// maintenance — with request-context cancellation threaded through the
// evaluator. Writes (POST /v1/update) go through a group-commit pipeline:
// each request becomes one journal record, and concurrent edge records
// join into one per commit window (closed by a dry queue or MaxBatch ops,
// never a timer), each
// waiter gets its per-request outcome (a rejected atomic batch round-trips
// the offending op index and cause, reconstructible as a typed
// *graph.BatchError by internal/client), and a bounded admission queue
// sheds overload with 429 + Retry-After instead of collapsing.
//
// The server serves a *structix.DB — the one store type, N ≥ 1 shards —
// so durability is the store's concern, not the server's: when the DB
// was opened with structix.Open, every commit window is journaled to the
// write-ahead log before its waiters are acknowledged (the committer
// writes the window through Shard.WriteWindowed and calls EndWindow once
// per window, making group commit and group fsync the same batch), and
// crash recovery is whatever structix.Open does. An in-memory DB
// (structix.NewDB) serves identically with durability off.
//
// Each shard gets its own commit pipeline — admission queue, committer
// goroutine, commit window, WAL — so independent writes on different
// shards coalesce, apply, publish and fsync concurrently, while queries
// scatter across the per-shard epoch snapshots and gather one globally
// sorted answer. Updates are routed by the shard map (shard.Map.Route)
// before admission: an edge batch splits into per-shard sub-batches
// (atomic per shard), a node/subtree script must route whole to one
// shard. On one shard routing is the identity, so a single store runs
// the same code with no translation on its hot paths.
//
// The remaining endpoints are operational: GET /v1/stats (JSON, including
// the store's durability counters, aggregated across shards), GET
// /healthz, GET /metrics (Prometheus text exposition), and /debug/pprof.
// Shutdown drains every admission queue, flushes the in-flight commit
// windows, seals the journals with a final fsync, and leaves every
// in-flight update either fully committed or cleanly rejected; closing
// the store itself (snapshotting the final state) remains the owner's
// call after Shutdown returns.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync/atomic"
	"time"

	"structix"
	"structix/internal/graph"
	"structix/internal/opscript"
	"structix/internal/repl"
	"structix/internal/shard"
	"structix/internal/wal"
)

// Config tunes the serving layer; the zero value serves with defaults.
type Config struct {
	// MaxBatch closes a commit window once this many edge ops have pooled
	// (otherwise it closes when the admission queue runs dry); it bounds
	// how long one window holds the store's writer lock. Default 256.
	MaxBatch int
	// QueueDepth bounds each commit pipeline's admission queue (one per
	// shard); a full queue sheds updates with 429. Default 1024.
	QueueDepth int
}

// maxBodyBytes caps request bodies; retryAfterSeconds is the
// Retry-After hint on 429/503.
const (
	maxBodyBytes      = 8 << 20
	retryAfterSeconds = 1
)

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 256
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	return c
}

// Server serves one store, of any shard count, over HTTP.
type Server struct {
	store *structix.DB
	cfg   Config
	coms  []*committer // one commit pipeline per shard
	eng   *engine
	m     *metrics
	mux   *http.ServeMux
	hs    *http.Server

	// repl serves the WAL stream + snapshot-bootstrap endpoints (mounted
	// on any durable unsharded store, follower included — chained
	// replication ships the identical frames). follower is non-nil when
	// the store is a read replica (structix.OpenFollower).
	repl     *repl.Leader
	follower *repl.Runner

	draining atomic.Bool
}

// New builds a server over a store and starts one commit loop per
// shard. The DB is the single source of truth: durable if it came from
// structix.Open (the commit pipeline journals every window before
// acknowledging it), in-memory if it came from structix.NewDB. The
// store's indexes and graphs must not be touched directly while the
// server is live (use the HTTP surface, or Shutdown first); the caller
// keeps ownership of the DB and closes it after Shutdown.
func New(db *structix.DB, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		store: db,
		cfg:   cfg,
		m:     newMetrics(db.NumShards()),
		mux:   http.NewServeMux(),
	}
	s.eng = newEngine(db)
	s.coms = make([]*committer, db.NumShards())
	for i := range s.coms {
		s.coms[i] = newCommitter(db.Shard(i), i, cfg.QueueDepth, cfg.MaxBatch, s.m, s.eng)
	}

	// Replication endpoints: one journal per store means unsharded only
	// (shard a cluster by replicating each shard process separately). The
	// publication hook keeps the query cache and epoch gauges advancing on
	// a follower, where the committers never publish: the runner's apply
	// goroutine is then the shard's only publisher, preserving the
	// single-advancer contract qcache requires.
	if db.NumShards() == 1 {
		db0 := db.Shard(0)
		if db0.Journal() != nil {
			s.repl = repl.NewLeader(db0)
			s.mux.HandleFunc(repl.PathStream, s.repl.ServeStream)
			s.mux.HandleFunc(repl.PathSnapshot, s.repl.ServeSnapshot)
			s.mux.HandleFunc(repl.PathState, func(w http.ResponseWriter, r *http.Request) {
				s.repl.ServeState(w, r, db0.Stats().SnapshotSeq)
			})
		}
		if runner := db0.Follower(); runner != nil {
			s.follower = runner
			runner.SetOnApply(func(uint64) {
				s.eng.advance(0)
				s.m.bumpEpoch(0)
			})
		}
	}

	s.mux.HandleFunc("/v1/query", s.handleQuery)
	s.mux.HandleFunc("/v1/update", s.handleUpdate)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	s.hs = &http.Server{Handler: s.mux, ReadHeaderTimeout: 10 * time.Second}
	return s
}

// Handler exposes the route table (httptest and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Serve accepts connections on ln until Shutdown; like http.Serve it
// returns http.ErrServerClosed after a clean shutdown.
func (s *Server) Serve(ln net.Listener) error { return s.hs.Serve(ln) }

// Shutdown drains the server gracefully: admission closes first (new
// updates get 503 + Retry-After), the HTTP server stops accepting and
// waits for in-flight handlers within ctx, the commit loop flushes
// everything admitted, and the journal is sealed with a final fsync so
// every acknowledged update is durable whatever the fsync policy. Every
// admitted update has fully committed by the time Shutdown returns;
// everything after admission closed was cleanly rejected. The DB itself
// stays open — Close it after Shutdown to snapshot the final state.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	for _, c := range s.coms {
		c.beginClose()
	}
	httpErr := s.hs.Shutdown(ctx)
	for _, c := range s.coms {
		c.close()
	}
	syncErr := s.store.Sync()
	if httpErr != nil {
		return httpErr
	}
	return syncErr
}

// ---- request handling ----

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(body)
}

func (s *Server) writeError(w http.ResponseWriter, status int, rep ErrorReply) {
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		rep.RetryAfterSeconds = retryAfterSeconds
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
	}
	writeJSON(w, status, rep)
}

// decodeBody strictly decodes a JSON body into dst: unknown fields,
// trailing garbage, and oversize bodies are all 400s, never panics.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, dst any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		s.m.badRequests.Add(1)
		s.writeError(w, http.StatusBadRequest, ErrorReply{Error: err.Error(), Code: CodeBadRequest})
		return false
	}
	if dec.More() {
		s.m.badRequests.Add(1)
		s.writeError(w, http.StatusBadRequest, ErrorReply{Error: "trailing data after JSON body", Code: CodeBadRequest})
		return false
	}
	return true
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.writeError(w, http.StatusMethodNotAllowed, ErrorReply{Error: "POST only", Code: CodeBadRequest})
		return
	}
	var req QueryRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	pr, err := s.eng.program(req.Expr)
	if err != nil {
		s.m.badRequests.Add(1)
		s.writeError(w, http.StatusBadRequest, ErrorReply{Error: err.Error(), Code: CodeBadRequest})
		return
	}
	start := time.Now()
	var seq uint64
	if s.store.NumShards() == 1 {
		db0 := s.store.Shard(0)
		if req.MinEpoch > 0 {
			// Read-your-writes: park until the published snapshot covers the
			// requested journal seq, bounded by WaitMs. On a caught-up store
			// this is one atomic load.
			wait := time.Duration(req.WaitMs) * time.Millisecond
			if wait <= 0 {
				wait = time.Second
			} else if wait > 30*time.Second {
				wait = 30 * time.Second
			}
			wctx, cancel := context.WithTimeout(r.Context(), wait)
			err := db0.WaitForSeq(wctx, req.MinEpoch)
			cancel()
			if err != nil {
				s.m.staleReads.Add(1)
				s.writeError(w, http.StatusGatewayTimeout, ErrorReply{
					Error: fmt.Sprintf("replica at seq %d did not reach min_epoch %d within the wait bound", db0.Seq(), req.MinEpoch),
					Code:  CodeReplicaStale,
				})
				return
			}
		}
		// Read the covered seq BEFORE pinning the snapshot: a concurrent
		// publication can only make the pinned snapshot newer than the
		// reported seq, so the reply never overstates its freshness.
		seq = db0.Seq()
	} else if req.MinEpoch > 0 {
		s.m.badRequests.Add(1)
		s.writeError(w, http.StatusBadRequest, ErrorReply{Error: "min_epoch is unsupported on a sharded store", Code: CodeBadRequest})
		return
	}
	// One atomic load per shard pins the epoch snapshots for the whole
	// request; concurrent commits publish new epochs without touching
	// them. Each snapshot pointer doubles as its shard's result-cache
	// validity tag, so cache lookups can never cross epochs.
	snap := s.store.Snapshot()
	rep := QueryReply{Epoch: s.m.epoch.Load(), Seq: seq}
	if n := snap.NumShards(); n > 1 {
		rep.Epochs = make([]uint64, n)
		for i := range rep.Epochs {
			rep.Epochs[i] = s.m.epochs[i].Load()
		}
	}
	var nodes []graph.NodeID
	nodes, rep.Cached, err = s.eng.run(r.Context(), pr, snap)
	if err == nil {
		rep.Count = len(nodes)
		if !req.CountOnly {
			if req.Limit > 0 && len(nodes) > req.Limit {
				nodes = nodes[:req.Limit]
				rep.Truncated = true
			}
			rep.Nodes = nodes
		}
	}
	s.m.queries.Add(1)
	s.m.queryLat.observe(time.Since(start))
	if err != nil {
		// The client went away mid-evaluation; the status is written for
		// completeness (and for tests driving the handler directly).
		s.m.canceled.Add(1)
		s.writeError(w, http.StatusServiceUnavailable, ErrorReply{Error: err.Error(), Code: CodeCanceled})
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.writeError(w, http.StatusMethodNotAllowed, ErrorReply{Error: "POST only", Code: CodeBadRequest})
		return
	}
	var req UpdateRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if len(req.Ops) == 0 {
		s.m.badRequests.Add(1)
		s.writeError(w, http.StatusBadRequest, ErrorReply{Error: "empty ops", Code: CodeBadRequest})
		return
	}
	if s.follower != nil {
		// Reject before admission: a replica can never commit, so the write
		// should not occupy a commit-pipeline slot. (A race that slips past
		// this gate is still caught typed at apply time.)
		s.m.notLeader.Add(1)
		s.writeError(w, http.StatusMisdirectedRequest, ErrorReply{
			Error:  "read-only replica: writes go to the leader",
			Code:   CodeNotLeader,
			Leader: s.follower.Leader(),
		})
		return
	}

	parts, err := s.store.Map().Route(recordOf(req.Ops))
	if err != nil {
		s.updateError(w, err, 0)
		return
	}
	start := time.Now()
	// Submit every part before waiting on any, so the sub-batches of a
	// cross-shard request sit in their pipelines concurrently rather than
	// committing one by one. Once admitted a part is not abandoned on
	// client disconnect: it commits (or is rejected) regardless, so the
	// outcome is always authoritative.
	urs := make([]*updateReq, len(parts))
	outs := make([]updateOutcome, len(parts))
	for i, p := range parts {
		urs[i] = &updateReq{Part: p, done: make(chan updateOutcome, 1)}
		outs[i].Err = s.coms[p.Shard].submit(urs[i])
	}
	for i, ur := range urs {
		if outs[i].Err == nil {
			outs[i] = s.coms[ur.Shard].wait(ur)
		}
	}
	s.m.updates.Add(1)
	s.m.updateLat.observe(time.Since(start))
	s.respondUpdate(w, parts, outs)
}

// recordOf is the journal record a request's ops make: edge ops alone are
// one atomic edge batch, anything else a stop-at-first-error script.
func recordOf(ops []opscript.Op) *wal.Record {
	edges := make([]graph.EdgeOp, len(ops))
	for i, op := range ops {
		var ok bool
		if edges[i], ok = opscript.ToEdgeOp(op); !ok {
			return &wal.Record{Kind: wal.RecScript, Script: ops}
		}
	}
	return &wal.Record{Kind: wal.RecEdges, Edges: edges}
}

// respondUpdate renders the outcome of a request's parts on the wire: the
// parts fold into one result in the request's global coordinates
// (shard.Map.Fold, the store's own fold too), and the reply adds what only
// the wire carries — the epoch, the journal seq and the group-commit size.
// Each part commits on its own, so a rejection reports how many ops the
// other parts committed.
func (s *Server) respondUpdate(w http.ResponseWriter, parts []shard.Part, outs []updateOutcome) {
	var rep UpdateReply
	folded := make([]shard.Outcome, len(outs))
	for i, out := range outs {
		folded[i] = out.Outcome
		if out.Err == nil {
			rep.BatchSize += out.batchSize
			rep.Epoch = max(rep.Epoch, out.epoch)
		}
	}
	res, err := s.store.Map().Fold(parts, folded)
	if err != nil {
		s.updateError(w, err, res.Applied)
		return
	}
	rep.Applied, rep.Inserted, rep.Deleted, rep.Removed, rep.NewNodes = res.Applied, res.Inserted, res.Deleted, res.Removed, res.NewNodes
	if len(outs) == 1 {
		rep.Seq = outs[0].seq
	}
	writeJSON(w, http.StatusOK, rep)
}

// updateError renders a refused or failed update, err in the request's
// coordinates; applied is how many of its ops committed all the same.
func (s *Server) updateError(w http.ResponseWriter, err error, applied int) {
	var nle *structix.NotLeaderError
	var be *graph.BatchError
	var oe *opscript.OpError
	switch {
	case errors.Is(err, ErrShuttingDown):
		s.m.rejected.Add(1)
		s.writeError(w, http.StatusServiceUnavailable, ErrorReply{Error: err.Error(), Code: CodeShuttingDown, Applied: applied})
	case errors.Is(err, ErrOverloaded):
		s.m.rejected.Add(1)
		s.writeError(w, http.StatusTooManyRequests, ErrorReply{Error: err.Error(), Code: CodeOverloaded, Applied: applied})
	case errors.As(err, &nle):
		s.m.notLeader.Add(1)
		s.writeError(w, http.StatusMisdirectedRequest, ErrorReply{Error: err.Error(), Code: CodeNotLeader, Leader: nle.Leader})
	case errors.As(err, &be):
		erep := BatchErrorReply(be)
		erep.Applied = applied
		s.writeError(w, http.StatusConflict, erep)
	case errors.As(err, &oe):
		i, op := oe.Index, oe.Op
		s.writeError(w, http.StatusConflict, ErrorReply{
			Error:   oe.Error(),
			Code:    CodeOpFailed,
			OpIndex: &i,
			Op:      &op,
			Cause:   CauseString(oe.Err),
			Applied: applied,
		})
	default:
		s.writeError(w, http.StatusInternalServerError, ErrorReply{Error: err.Error(), Code: "internal", Applied: applied})
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	snap := s.store.Snapshot()
	n := snap.NumShards()
	rep := StatsReply{
		Shards:        n,
		Epoch:         s.m.epoch.Load(),
		SnapshotAgeMs: s.m.snapshotAge().Milliseconds(),
		Batches:       s.m.batches.Load(),
		BatchedOps:    s.m.batchedOps.Load(),
		MeanBatchSize: s.m.meanBatchSize(),
		Queries:       s.m.queries.Load(),
		Updates:       s.m.updates.Load(),
		Rejected:      s.m.rejected.Load(),
		UptimeMs:      time.Since(s.m.started).Milliseconds(),
	}
	for i := 0; i < n; i++ {
		data := snap.Shard(i).Data()
		rep.Nodes += data.NumNodes()
		rep.Edges += data.NumEdges()
		rep.INodes += snap.Shard(i).Size()
		db, eb := snap.Shard(i).ExtentBytes()
		rep.ExtentDenseBytes += db
		rep.ExtentEncodedBytes += eb
	}
	// Every shard carries a replica of the one document root: count the
	// logical root once.
	rep.Nodes -= n - 1
	for _, c := range s.coms {
		rep.QueueDepth += len(c.queue)
		rep.QueueCap += cap(c.queue)
	}
	rep.QueueWaitP50Us = s.m.queueWait.quantileUs(0.50)
	rep.QueueWaitP99Us = s.m.queueWait.quantileUs(0.99)
	cs := s.eng.cacheStats()
	rep.CacheHits = cs.Hits
	rep.CacheMisses = cs.Misses
	rep.CacheHitRate = cs.HitRate()
	rep.CacheEntries = cs.Entries
	rep.CacheInvalidated = cs.Invalidated
	rep.CacheFootprintSlots = cs.FootprintSlots
	rep.CompiledPrograms = s.eng.programs()
	ds := s.store.Stats()
	rep.Durable = ds.Durable
	rep.FsyncPolicy = ds.Policy
	rep.AppliedSeq = ds.AppliedSeq
	rep.DurableSeq = ds.DurableSeq
	rep.SnapshotSeq = ds.SnapshotSeq
	rep.JournalSegments = ds.JournalSegments
	rep.JournalBytes = ds.JournalBytes
	rep.JournalSyncs = ds.JournalSyncs
	rep.Compactions = ds.Compactions
	rep.ReplayedRecords = ds.ReplayedRecords
	rep.TornBytesDropped = ds.TornBytesDropped
	rep.WriteError = ds.WriteError
	if s.repl != nil || s.follower != nil {
		rg := &ReplStatsReply{Role: "leader"}
		if s.repl != nil {
			ls := s.repl.Stats()
			rg.Leader = &ls
		}
		if s.follower != nil {
			rg.Role = "follower"
			fs := s.follower.Stats()
			rg.Follower = &fs
		}
		rep.Repl = rg
	}
	if n > 1 {
		rep.ShardStats = make([]ShardStatsReply, n)
		for i := 0; i < n; i++ {
			ds := s.store.Shard(i).Stats()
			rep.ShardStats[i] = ShardStatsReply{
				Epoch:      s.m.epochs[i].Load(),
				Nodes:      snap.Shard(i).Data().NumNodes(),
				INodes:     snap.Shard(i).Size(),
				QueueDepth: len(s.coms[i].queue),
				AppliedSeq: ds.AppliedSeq,
				DurableSeq: ds.DurableSeq,
			}
		}
	}
	writeJSON(w, http.StatusOK, rep)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	if s.follower != nil && s.follower.Stats().ResyncRequired {
		// The replica can never catch up by streaming; surface it so an
		// orchestrator restarts the process (which re-bootstraps).
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "resync required")
		return
	}
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	qd, qc := 0, 0
	for _, c := range s.coms {
		qd += len(c.queue)
		qc += cap(c.queue)
	}
	s.m.writeProm(w, qd, qc)
	writeCacheProm(w, s.eng.cacheStats(), s.eng.programs())
	snap := s.store.Snapshot()
	var denseB, encB int64
	for i := 0; i < snap.NumShards(); i++ {
		db, eb := snap.Shard(i).ExtentBytes()
		denseB += db
		encB += eb
	}
	writeExtentProm(w, denseB, encB)
	writeDurabilityProm(w, s.store.Stats())
	if s.repl != nil || s.follower != nil {
		var ls *repl.LeaderStats
		var fs *repl.FollowerStats
		if s.repl != nil {
			v := s.repl.Stats()
			ls = &v
		}
		if s.follower != nil {
			v := s.follower.Stats()
			fs = &v
		}
		s.m.writeReplProm(w, ls, fs)
	}
}
