package structix

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"structix/internal/graph"
	"structix/internal/opscript"
	"structix/internal/query"
	"structix/internal/shard"
	"structix/internal/wal"
)

// DB is the one store: N ≥ 1 independent shards, each a Shard with its
// own graph, index, commit window and, when durable, write-ahead log and
// snapshot files. The paper's maintenance is local to the affected set,
// so a write confined to one shard is coordination-free, and per-commit
// costs that grow with the graph (snapshot publication) are paid per
// shard. A single store is the one-shard case: Open of a single-store
// directory, NewDB and OpenFollower return one.
//
// Callers address nodes by striped global ids (see internal/shard):
// global = local·N + shard, the identity when N = 1. The root is the one
// shared node: every shard carries a replica, all presenting as one
// global root id. Shards admit no cross-shard edges; a record that would
// create one is refused with shard.ErrCrossShard before anything is
// applied. New top-level subtrees (nodes or subgraphs grafted under the
// root) are placed deterministically by label hash.
//
// A write is one journal record, routed by shard.Map.Route into one part
// per shard it touches. Each part commits on its own shard, as its own
// commit window, whatever its siblings did, and the outcomes fold into
// one (shard.Map.Fold): the parts' results summed, plus the first failing
// part's error — a rejection leaves the other parts committed, counted in
// Applied. After a crash every shard recovers a prefix of its own parts.
// Reads never lock: Snapshot gathers each shard's current epoch snapshot,
// each internally consistent; cross-shard reads are per-shard consistent,
// not a global point-in-time cut.
type DB struct {
	shards []*Shard
	m      *shard.Map
	dir    string
	labels *labelSpace
}

// labelSpace is the store's own label space for the public Subgraph
// surface (DeleteSubtree returns its LabelIDs, AddSubgraph takes them).
// Shard interners are private to their writers, so this one has its own
// lock.
type labelSpace struct {
	mu sync.Mutex
	in *graph.Interner
}

// adopt translates ids of the interner from into this space, in place.
func (ls *labelSpace) adopt(from *graph.Interner, ids []graph.LabelID) []graph.LabelID {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	for i, l := range ids {
		ids[i] = ls.in.Intern(from.Name(l))
	}
	return ids
}

// names resolves ids, in order. An id this space never issued is
// ErrBadSubgraph: it names no label.
func (ls *labelSpace) names(ids []graph.LabelID) ([]string, error) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	names := make([]string, len(ids))
	for i, l := range ids {
		if l < 0 || int(l) >= ls.in.Len() {
			return nil, fmt.Errorf("%w: label id %d was never issued by this store", graph.ErrBadSubgraph, l)
		}
		names[i] = ls.in.Name(l)
	}
	return names, nil
}

// SyncPolicy selects when journal appends are fsynced; see the wal
// package for the full semantics of each policy.
type SyncPolicy = wal.SyncPolicy

// Fsync policies for Options.Sync.
const (
	// SyncWindow fsyncs once per commit window (the default): durability
	// piggybacks on group commit, one fsync covers every write in the
	// window, and the window's writers are acknowledged only after it.
	SyncWindow = wal.SyncWindow
	// SyncAlways fsyncs inside every journal append.
	SyncAlways = wal.SyncAlways
	// SyncInterval fsyncs on a background ticker (Options.SyncInterval):
	// acknowledgments do not wait, loss after a crash is bounded by the
	// interval.
	SyncInterval = wal.SyncInterval
	// SyncNone never fsyncs; the OS page cache decides.
	SyncNone = wal.SyncNone
)

// ParseSyncPolicy reads a policy name ("always", "window", "interval",
// "none") as spelled on command lines.
func ParseSyncPolicy(s string) (SyncPolicy, error) { return wal.ParseSyncPolicy(s) }

// Options tunes Open; the zero value is a SyncWindow store with default
// segment size and compaction cadence.
type Options struct {
	// Sync is the journal fsync policy. Default SyncWindow.
	Sync SyncPolicy
	// SyncInterval is the background fsync period under SyncInterval.
	// Default 100ms.
	SyncInterval time.Duration
	// SegmentBytes rolls the journal to a new segment beyond this size.
	// Default 64 MiB.
	SegmentBytes int64
	// CompactEvery triggers a background snapshot + journal truncation
	// after this many journaled ops — not records: an edge batch weighs
	// its ops, a script its applied ops, a grafted subgraph its nodes — so
	// the journal tail recovery replays is bounded in ops, which is what
	// replay time is proportional to, however the writes were grouped into
	// records. A caller committing one op per record sees records == ops.
	// Default 65536; negative disables background compaction (Close still
	// writes a final snapshot).
	CompactEvery int
	// Bootstrap supplies the initial state for a directory that has no
	// snapshot yet (a brand-new store). When nil, the store starts as an
	// empty graph with a root node. The bootstrapped state is snapshotted
	// during Open, before any journaling, so Bootstrap is never re-run on
	// recovery — except in a sharded layout, where Open may re-run it to
	// rebuild a shard that crashed before its first snapshot; it must
	// therefore be deterministic there.
	Bootstrap func() (*Database, error)
	// Shards is the shard count Open lays a new directory out in: 0 or 1
	// is a single store at the directory itself, more is a manifest and
	// one subdirectory per shard. An existing directory keeps its layout:
	// a non-zero Shards that disagrees with it is a *LayoutError.
	Shards int
	// Extents selects the snapshot extent representation (default
	// ExtentsDense). ExtentsCompressed trades a little decode work on the
	// query path for a large reduction in resident snapshot bytes; the
	// live index and the journal format are unaffected, so the codec can
	// differ freely between runs of the same store.
	Extents ExtentCodec
}

func (o Options) withDefaults() Options {
	if o.CompactEvery == 0 {
		o.CompactEvery = 65536
	}
	return o
}

// ErrClosed is returned by every operation on a closed DB.
var ErrClosed = errors.New("structix: database is closed")

// LayoutError is Open's refusal of a directory laid out for another
// shard count than Options.Shards asks for. Nothing in the directory is
// changed.
type LayoutError struct {
	Dir    string
	Shards int // the shard count dir holds; 1 is a single-store layout
	Asked  int // Options.Shards
}

func (e *LayoutError) Error() string {
	return fmt.Sprintf("structix: %s holds a %d-shard store, asked for %d shards", e.Dir, e.Shards, e.Asked)
}

const shardManifest = "shards"

func shardDirName(s int) string { return fmt.Sprintf("shard-%02d", s) }

// layoutOf reads the layout of dir and checks it against asked
// (Options.Shards). A manifest pins n shards under shard-NN (manifest
// true). With none, asked ≤ 1 is a single store at dir (n = 1), and
// asked > 1 lays out n = asked shards. A directory without a manifest
// that already holds the other layout — a single store's snapshot or
// journal, or shard-NN subdirectories (a sharded Open that stopped before
// writing its manifest) — is a *LayoutError.
func layoutOf(dir string, asked int) (n int, manifest bool, err error) {
	b, err := os.ReadFile(filepath.Join(dir, shardManifest))
	switch {
	case err == nil:
		n, err := strconv.Atoi(strings.TrimSpace(string(b)))
		if err != nil || n < 1 {
			return 0, false, fmt.Errorf("structix: bad shard manifest %q", string(b))
		}
		if asked != 0 && asked != n {
			return 0, false, &LayoutError{Dir: dir, Shards: n, Asked: asked}
		}
		return n, true, nil
	case !errors.Is(err, os.ErrNotExist):
		return 0, false, fmt.Errorf("structix: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return 0, false, fmt.Errorf("structix: %w", err)
	}
	single, shards := false, 0
	for _, e := range entries {
		if _, ok := parseSnapName(e.Name()); ok || e.Name() == walSubdir {
			single = true
		} else if e.IsDir() && strings.HasPrefix(e.Name(), "shard-") {
			shards++
		}
	}
	switch {
	case asked <= 1 && shards > 0:
		return 0, false, &LayoutError{Dir: dir, Shards: shards, Asked: asked}
	case asked > 1 && single:
		return 0, false, &LayoutError{Dir: dir, Shards: 1, Asked: asked}
	}
	return max(asked, 1), false, nil
}

// Open opens (or creates) the durable store in dir, in the layout the
// directory holds (see Options.Shards), and recovers every shard on its
// own: the newest readable snapshot is loaded and the journal tail
// replayed on top, truncating a torn final frame if the previous process
// died mid-write. The returned DB owns dir until Close.
func Open(dir string, opts Options) (*DB, error) {
	opts = opts.withDefaults()
	n, manifest, err := layoutOf(dir, opts.Shards)
	if err != nil {
		return nil, err
	}
	if n == 1 && !manifest {
		sh, err := openShard(dir, opts)
		if err != nil {
			return nil, err
		}
		return newDB(dir, []*Shard{sh}), nil
	}
	boot := splitBootstrap(opts.Bootstrap, n)
	shards := make([]*Shard, n)
	for s := range shards {
		so := opts
		so.Bootstrap = func() (*Database, error) { return boot(s) }
		if shards[s], err = openShard(filepath.Join(dir, shardDirName(s)), so); err != nil {
			for _, sh := range shards[:s] {
				sh.close()
			}
			return nil, fmt.Errorf("structix: shard %d: %w", s, err)
		}
	}
	db := newDB(dir, shards)
	// The manifest is written last: its presence means every shard
	// directory exists and is initialized. A crash before this point
	// leaves a directory the next Open (same opts) completes.
	if !manifest {
		if err := writeFileAtomic(dir, shardManifest, func(w io.Writer) error {
			_, err := fmt.Fprintln(w, n)
			return err
		}); err != nil {
			db.Close()
			return nil, err
		}
	}
	return db, nil
}

// splitBootstrap returns shard s's part of the bootstrap state, split n
// ways by connected component of the root's children. The state is built
// and split at most once, on demand from the first shard that has no
// snapshot yet; its siblings take their parts from the same split. (A
// shard that crashed before its first snapshot re-runs this on reopen —
// hence the determinism requirement on Options.Bootstrap.)
func splitBootstrap(bootstrap func() (*Database, error), n int) func(s int) (*Database, error) {
	var (
		once  sync.Once
		parts []*graph.Graph
		err   error
	)
	return func(s int) (*Database, error) {
		once.Do(func() {
			var base *Database
			if base, err = bootstrapState(bootstrap); err == nil {
				parts, _ = shard.Split(base.Graph, shard.NewRouter(n))
			}
		})
		if err != nil {
			return nil, err
		}
		return &Database{Graph: parts[s]}, nil
	}
}

// NewDB wraps an already-built index of either family — a 1-index or an
// A(k) family, whose level-k snapshots answer exactly by validating what
// the index alone cannot decide — as an in-memory one-shard DB: the same
// handle and serving model, journaling disabled. Open is the durable
// variant.
func NewDB(idx Index) *DB { return newDB("", []*Shard{newShard(idx)}) }

// NewShardedDB builds an in-memory store (journaling disabled) from an
// initial state, split n ways, for tests and benchmarks. A nil base
// starts from an empty graph with a root node. mapping[v] is the striped
// global id base's node v received (InvalidNode for dead ids), for
// rewriting an op stream recorded against base into the store's address
// space.
func NewShardedDB(base *Graph, n int) (db *DB, mapping []NodeID) {
	if base == nil {
		base = graph.New()
		base.AddRoot()
	}
	parts, mapping := shard.Split(base, shard.NewRouter(n))
	shards := make([]*Shard, len(parts))
	for s, p := range parts {
		shards[s] = newShard(BuildOneIndex(p))
	}
	return newDB("", shards), mapping
}

func newDB(dir string, shards []*Shard) *DB {
	db := &DB{shards: shards, dir: dir, labels: &labelSpace{in: graph.NewInterner()}}
	roots := make([]NodeID, len(shards))
	for s, sh := range shards {
		roots[s] = sh.idx.Graph().Root()
		sh.labels = db.labels
	}
	db.m = shard.NewMap(shard.NewRouter(len(shards)), roots)
	return db
}

// NumShards returns the shard count.
func (db *DB) NumShards() int { return len(db.shards) }

// Shard returns shard s. Its ids are shard-local; the server's per-shard
// committers and replication write through it, routing with Map first
// and folding the outcomes with Map.Fold, exactly as the DB does.
func (db *DB) Shard(s int) *Shard { return db.shards[s] }

// Map returns the global↔local translation layer.
func (db *DB) Map() *shard.Map { return db.m }

// GlobalRoot returns the single global root id.
func (db *DB) GlobalRoot() NodeID { return db.m.GlobalRoot() }

// ---- write path ----

// ApplyBatch applies a batch of edge updates. Each shard's part commits
// atomically as its own commit window (see the type's doc): when
// ApplyBatch returns it is applied, published and — under SyncAlways and
// SyncWindow — durable. The first rejected part's *BatchError comes back
// in global coordinates; an edge across shards is refused before anything
// commits, a *BatchError with cause shard.ErrCrossShard.
func (db *DB) ApplyBatch(ops []EdgeOp) error {
	_, _, err := db.write(&wal.Record{Kind: wal.RecEdges, Edges: ops})
	return err
}

// ApplyScript runs an op script as its own commit window, stopping at its
// first failing op: the applied prefix commits and is journaled, the rest
// does not. A script routes whole to one shard (an addnode under the
// global root is placed by its label); the first op that disagrees is an
// *OpError with cause shard.ErrCrossShard. Result ids and any *OpError
// are in global coordinates.
func (db *DB) ApplyScript(ops []ScriptOp) (OpResult, error) {
	res, _, err := db.write(&wal.Record{Kind: wal.RecScript, Script: ops})
	return res, err
}

// write routes a record (global ids) through the shard map, commits each
// part as its own window on its shard, and folds the outcomes (see the
// type's doc). cut is the subtree a script's delsub removed, in global
// ids and the store's label space.
func (db *DB) write(rec *wal.Record) (OpResult, *Subgraph, error) {
	parts, err := db.m.Route(rec)
	if err != nil {
		return OpResult{}, nil, err
	}
	outs := make([]shard.Outcome, len(parts))
	var cut *Subgraph
	for i, p := range parts {
		sh := db.shards[p.Shard]
		var c *Subgraph
		outs[i].Res, c, outs[i].Err = sh.write(p.Rec)
		if err := sh.EndWindow(); err != nil && outs[i].Err == nil {
			outs[i].Err = err
		}
		if c != nil {
			c.Members = db.m.GlobalizeNodes(p.Shard, c.Members)
			for j := range c.CrossIn {
				c.CrossIn[j].Outside = db.m.ToGlobal(p.Shard, c.CrossIn[j].Outside)
			}
			for j := range c.CrossOut {
				c.CrossOut[j].Outside = db.m.ToGlobal(p.Shard, c.CrossOut[j].Outside)
			}
			cut = c
		}
	}
	res, err := db.m.Fold(parts, outs)
	return res, cut, err
}

// one writes a one-op script as its own commit window, surfacing the
// op's cause without the script wrapper (errors.Is works either way;
// callers of the single-op entry points expect the bare cause).
func (db *DB) one(op ScriptOp) (OpResult, *Subgraph, error) {
	res, cut, err := db.write(&wal.Record{Kind: wal.RecScript, Script: []ScriptOp{op}})
	var oe *opscript.OpError
	if errors.As(err, &oe) {
		err = oe.Err
	}
	return res, cut, err
}

// InsertEdge inserts a dedge as its own commit window.
func (db *DB) InsertEdge(u, v NodeID, kind EdgeKind) error {
	_, _, err := db.one(ScriptOp{Kind: opscript.Insert, U: u, V: v, Edge: kind})
	return err
}

// DeleteEdge deletes a dedge as its own commit window.
func (db *DB) DeleteEdge(u, v NodeID) error {
	_, _, err := db.one(ScriptOp{Kind: opscript.Delete, U: u, V: v})
	return err
}

// InsertNode adds a node labeled label under parent (tree edge) as its
// own commit window. A node added directly under the global root starts
// a new top-level subtree and is placed on the shard its label hashes to.
func (db *DB) InsertNode(label string, parent NodeID) (NodeID, error) {
	res, _, err := db.one(ScriptOp{Kind: opscript.AddNode, Label: label, V: parent})
	if err != nil {
		return InvalidNode, err
	}
	return res.NewNodes[0], nil
}

// DeleteNode removes a node and its edges as its own commit window.
func (db *DB) DeleteNode(v NodeID) error {
	_, _, err := db.one(ScriptOp{Kind: opscript.DelNode, U: v})
	return err
}

// DeleteSubtree removes the subtree rooted at root (following tree edges
// only, the §7.1 workload convention) as its own commit window, and
// returns it with Members and cross-edge endpoints as global ids and
// Labels in the store's label space — ready to re-graft anywhere in the
// store via AddSubgraph.
func (db *DB) DeleteSubtree(root NodeID) (*Subgraph, error) {
	_, cut, err := db.one(ScriptOp{Kind: opscript.DelSub, U: root})
	return cut, err
}

// AddSubgraph grafts a subgraph as its own commit window and returns the
// new global ids, local-index order. sg is in the form DeleteSubtree
// returns: Labels in the store's label space (an id the store never
// issued is ErrBadSubgraph), cross-edge endpoints as global ids. Every
// non-root outside endpoint must be on one shard, the graft's; a subgraph
// attached only to the root is a new top-level subtree, placed by the
// label of its attach point. The journal record carries the full payload
// — label names, values, internal and boundary-crossing edges — so replay
// re-grafts the identical subtree.
func (db *DB) AddSubgraph(sg *Subgraph) ([]NodeID, error) {
	if err := sg.Check(); err != nil {
		return nil, err
	}
	names, err := db.labels.names(sg.Labels)
	if err != nil {
		return nil, err
	}
	res, _, err := db.write(&wal.Record{Kind: wal.RecSubgraph, Sub: &wal.SubgraphPayload{
		Labels:    names,
		Values:    sg.Values,
		Edges:     sg.Edges,
		EdgeKinds: sg.EdgeKinds,
		CrossIn:   sg.CrossIn,
		CrossOut:  sg.CrossOut,
	}})
	if err != nil {
		return nil, err
	}
	return res.NewNodes, nil
}

// each runs fn on every shard, in order, and returns the first error,
// naming its shard on a store of more than one.
func (db *DB) each(fn func(*Shard) error) error {
	var first error
	for s, sh := range db.shards {
		if err := fn(sh); err != nil && first == nil {
			first = err
			if len(db.shards) > 1 {
				first = fmt.Errorf("structix: shard %d: %w", s, err)
			}
		}
	}
	return first
}

// Sync is an explicit durability barrier: it fsyncs every shard's
// journal, whatever the policy. No-op in memory.
func (db *DB) Sync() error { return db.each((*Shard).sync) }

// Validate checks graph and index invariants on every shard, each under
// its writer lock.
func (db *DB) Validate() error { return db.each((*Shard).validate) }

// SetExtentCodec switches the representation future snapshots freeze
// extents into and immediately publishes re-frozen snapshots under the
// new codec, shard by shard. Readers holding an older snapshot keep the
// representation it was frozen with; the switch is otherwise transparent
// — results are bit-identical under every codec.
func (db *DB) SetExtentCodec(c ExtentCodec) error {
	return db.each(func(sh *Shard) error { return sh.setExtentCodec(c) })
}

// Close seals every shard: writes stop, a final snapshot pins the current
// state (making the next Open a snapshot load with an empty tail), and
// the journal is fsynced and closed. Every shard closes; the first error
// is returned. Close is idempotent.
func (db *DB) Close() error { return db.each((*Shard).close) }

// Stats returns the store's durability counters, folded across shards:
// counters and journal shape sum (each shard numbers its own journal, so
// summed seqs read as total records), sticky errors keep the first one
// seen, and policy and durability are uniform by construction.
// Shard(s).Stats() has one shard's figures. Safe alongside writes.
func (db *DB) Stats() DBStats {
	agg := db.shards[0].Stats()
	for _, sh := range db.shards[1:] {
		ds := sh.Stats()
		agg.AppliedSeq += ds.AppliedSeq
		agg.DurableSeq += ds.DurableSeq
		agg.SnapshotSeq += ds.SnapshotSeq
		agg.JournalSegments += ds.JournalSegments
		agg.JournalBytes += ds.JournalBytes
		agg.JournalAppends += ds.JournalAppends
		agg.JournalSyncs += ds.JournalSyncs
		agg.Compactions += ds.Compactions
		agg.ReplayedRecords += ds.ReplayedRecords
		agg.TornBytesDropped += ds.TornBytesDropped
		if agg.CompactError == "" {
			agg.CompactError = ds.CompactError
		}
		if agg.WriteError == "" {
			agg.WriteError = ds.WriteError
		}
	}
	if agg.Durable {
		agg.Dir = db.dir
	}
	return agg
}

// ---- read path (scatter-gather over per-shard epoch snapshots) ----

// ShardedSnapshot is a vector of per-shard epoch snapshots: each is
// internally consistent and immutable; the vector is gathered with one
// atomic load per shard, so cross-shard reads are per-shard consistent
// rather than a global point-in-time cut. Valid indefinitely.
type ShardedSnapshot struct {
	m     *shard.Map
	snaps []*Snapshot
}

// Snapshot gathers the current snapshot of every shard: one atomic load
// per shard, never blocks, remains valid indefinitely.
func (db *DB) Snapshot() *ShardedSnapshot {
	snaps := make([]*Snapshot, len(db.shards))
	for s, sh := range db.shards {
		snaps[s] = sh.Snapshot()
	}
	return &ShardedSnapshot{m: db.m, snaps: snaps}
}

// NumShards returns the shard count.
func (ss *ShardedSnapshot) NumShards() int { return len(ss.snaps) }

// Shard returns shard s's snapshot.
func (ss *ShardedSnapshot) Shard(s int) *Snapshot { return ss.snaps[s] }

// Map returns the translation layer the results are merged through.
func (ss *ShardedSnapshot) Map() *shard.Map { return ss.m }

// Size returns the total inode count across shards.
func (ss *ShardedSnapshot) Size() int {
	n := 0
	for _, s := range ss.snaps {
		n += s.Size()
	}
	return n
}

// Eval evaluates a path expression by scatter-gather: the expression is
// compiled once, runs against every shard snapshot, and the per-shard
// results merge into one globally sorted list.
func (ss *ShardedSnapshot) Eval(p *Path) []NodeID {
	out, _ := ss.EvalCtx(nil, p)
	return out
}

// EvalCtx is Eval under a context; cancellation stops evaluation between
// shards and extent unions.
func (ss *ShardedSnapshot) EvalCtx(ctx context.Context, p *Path) ([]NodeID, error) {
	c := query.MustCompile(p)
	if len(ss.snaps) == 1 {
		// The 1-shard codec is the identity: the shard's own result is
		// the global result.
		return c.EvalSnapshotIntoCtx(ctx, nil, nil, ss.snaps[0])
	}
	secs := make([][]NodeID, len(ss.snaps))
	for s, snap := range ss.snaps {
		sec, err := c.EvalSnapshotIntoCtx(ctx, nil, nil, snap)
		if err != nil {
			return nil, err
		}
		secs[s] = ss.m.GlobalizeNodes(s, sec)
	}
	return MergeShardResults(nil, secs), nil
}

// MergeShardResults merges per-shard result sections — each sorted in
// global ids — into one globally sorted list assembled into dst
// (overwritten from the start, grown only when capacity falls short).
// Striping is monotone per shard (global = local·N + shard), so each
// shard's sorted local result stays sorted after translation. Sections
// share at most the global root, which every shard replicates and which
// is a result on each shard where an edge leads back into it; the k-way
// minimum scan emits every id once.
func MergeShardResults(dst []NodeID, secs [][]NodeID) []NodeID {
	dst = dst[:0]
	total := 0
	last := -1
	nonEmpty := 0
	for s, sec := range secs {
		total += len(sec)
		if len(sec) > 0 {
			last = s
			nonEmpty++
		}
	}
	if nonEmpty <= 1 {
		if last >= 0 {
			dst = append(dst, secs[last]...)
		}
		return dst
	}
	if cap(dst) < total {
		dst = make([]NodeID, 0, total)
	}
	heads := make([]int, len(secs))
	for {
		best, bestID := -1, NodeID(0)
		for s, sec := range secs {
			if heads[s] == len(sec) {
				continue
			}
			if id := sec[heads[s]]; best == -1 || id < bestID {
				best, bestID = s, id
			}
		}
		if best == -1 {
			return dst
		}
		heads[best]++
		if n := len(dst); n == 0 || dst[n-1] != bestID {
			dst = append(dst, bestID)
		}
	}
}

// Count returns the exact result size.
func (ss *ShardedSnapshot) Count(p *Path) int {
	n, _ := ss.CountCtx(nil, p)
	return n
}

// CountCtx is Count under a context. One shard counts from extent sizes
// where it can (query.CountSnapshot); more shards count the merged
// result, since the replicated root may be a result on several.
func (ss *ShardedSnapshot) CountCtx(ctx context.Context, p *Path) (int, error) {
	if len(ss.snaps) == 1 {
		return query.CountSnapshotCtx(ctx, p, ss.snaps[0])
	}
	out, err := ss.EvalCtx(ctx, p)
	return len(out), err
}

// Eval evaluates a path expression against the current snapshot vector:
// the exact result on either index family.
func (db *DB) Eval(p *Path) []NodeID { return db.Snapshot().Eval(p) }

// Count returns the exact result size from the current snapshot vector.
func (db *DB) Count(p *Path) int { return db.Snapshot().Count(p) }
