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

	"structix/internal/graph"
	"structix/internal/opscript"
	"structix/internal/query"
	"structix/internal/shard"
)

// ShardedDB partitions the store into N independent DBs for in-process
// write scale-out. The paper's maintenance algorithms are local to the
// affected set, so a batch confined to one shard is coordination-free:
// each shard owns a complete graph (its own root replica plus whole
// top-level subtrees), its own 1-index, its own commit window, and — when
// opened with OpenSharded — its own WAL directory and snapshot files.
// The per-commit costs that are global in a single DB (snapshot
// publication is O(total graph size) per commit) become per-shard costs
// of 1/N the size, and shard commits proceed concurrently.
//
// Callers address nodes by striped global ids (see internal/shard):
// global = local·N + shard, the identity when N = 1. The one shared node
// is the root — every shard carries a replica, all presenting as the
// single global root id. Shards admit no cross-shard edges; a batch that
// would create one is rejected with shard.ErrCrossShard before anything
// is applied. New top-level subtrees (nodes or subgraphs grafted under
// the root) are placed deterministically by label hash.
//
// Writes touching a single shard run concurrently with writes on other
// shards. A batch spanning several shards takes the facade's exclusive
// lock, pre-validates every shard's sub-batch, and only then applies:
// a rejected cross-shard batch applies nothing anywhere, and once
// validation passes the per-shard applies cannot fail (the lock excludes
// every other facade writer). Reads never lock: Snapshot gathers each
// shard's current epoch snapshot — a vector of per-shard snapshots, each
// internally consistent; cross-shard reads are per-shard consistent, not
// a global point-in-time cut.
type ShardedDB struct {
	shards []*DB
	m      *shard.Map
	dir    string

	// wmu lets single-shard writes run concurrently (RLock) while a
	// cross-shard batch gets the whole facade to itself (Lock).
	wmu sync.RWMutex

	// The facade's own label space for the public Subgraph surface: a
	// Subgraph returned by DeleteSubtree carries LabelIDs of this
	// interner (shard interners are private — sharing one across
	// concurrently committing shards would race).
	lmu    sync.Mutex
	labels *graph.Interner
}

const shardManifest = "shards"

func shardDirName(s int) string { return fmt.Sprintf("shard-%02d", s) }

// OpenSharded opens (or creates) a sharded durable store in dir: one DB
// per shard under dir/shard-NN, plus a manifest pinning the shard count.
// opts applies to every shard (opts.Bootstrap supplies the initial
// unsharded state, split across shards by connected component of the
// root's children — it must be deterministic, see Options.Bootstrap).
// Reopening an existing directory recovers every shard independently;
// opts.Shards, when non-zero, must agree with the manifest.
func OpenSharded(dir string, opts Options) (*ShardedDB, error) {
	opts = opts.withDefaults()
	n := opts.Shards
	if n < 1 {
		n = 1
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("structix: %w", err)
	}
	manifest := filepath.Join(dir, shardManifest)
	hadManifest := false
	if b, err := os.ReadFile(manifest); err == nil {
		mn, perr := strconv.Atoi(strings.TrimSpace(string(b)))
		if perr != nil || mn < 1 {
			return nil, fmt.Errorf("structix: bad shard manifest %q", string(b))
		}
		if opts.Shards != 0 && opts.Shards != mn {
			return nil, fmt.Errorf("structix: directory is sharded %d ways, asked for %d", mn, opts.Shards)
		}
		n, hadManifest = mn, true
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("structix: %w", err)
	}

	r := shard.NewRouter(n)
	// The unsharded bootstrap state is built and split at most once, on
	// demand from the first shard that has no snapshot yet; its siblings
	// take their parts from the same split. (A shard that crashed before
	// its first snapshot re-runs this on reopen — hence the determinism
	// requirement on Bootstrap.)
	var (
		bootOnce sync.Once
		bootErr  error
		parts    []*graph.Graph
	)
	bootstrapShard := func(s int) func() (*Database, error) {
		return func() (*Database, error) {
			bootOnce.Do(func() {
				g := graph.New()
				g.AddRoot()
				if opts.Bootstrap != nil {
					base, err := opts.Bootstrap()
					if err != nil {
						bootErr = fmt.Errorf("structix: bootstrap: %w", err)
						return
					}
					if base == nil || base.Graph == nil {
						bootErr = errors.New("structix: bootstrap returned no graph")
						return
					}
					g = base.Graph
				}
				parts, _ = shard.Split(g, r)
			})
			if bootErr != nil {
				return nil, bootErr
			}
			return &Database{Graph: parts[s]}, nil
		}
	}

	shards := make([]*DB, n)
	fail := func(err error) (*ShardedDB, error) {
		for _, db := range shards {
			if db != nil {
				db.Close()
			}
		}
		return nil, err
	}
	for s := 0; s < n; s++ {
		so := opts
		so.Shards = 0
		so.Bootstrap = bootstrapShard(s)
		db, err := Open(filepath.Join(dir, shardDirName(s)), so)
		if err != nil {
			return fail(fmt.Errorf("structix: shard %d: %w", s, err))
		}
		shards[s] = db
	}
	// The manifest is written last: its presence means every shard
	// directory exists and is initialized. A crash before this point
	// leaves a directory the next OpenSharded (same opts) completes.
	if !hadManifest {
		err := writeFileAtomic(dir, shardManifest, func(w io.Writer) error {
			if _, err := io.WriteString(w, strconv.Itoa(n)+"\n"); err != nil {
				return fmt.Errorf("structix: %w", err)
			}
			return nil
		})
		if err != nil {
			return fail(err)
		}
	}
	sdb := wrap(shards)
	sdb.dir = dir
	return sdb, nil
}

// NewShardedDB builds an in-memory sharded store (journaling disabled)
// from an initial state, split n ways — the sharded counterpart of NewDB,
// for tests and benchmarks. A nil base starts from an empty graph with a
// root node. mapping[v] is the striped global id base's node v received
// (InvalidNode for dead ids), for rewriting an op stream recorded against
// base into the sharded address space.
func NewShardedDB(base *Graph, n int) (sdb *ShardedDB, mapping []NodeID) {
	if base == nil {
		base = graph.New()
		base.AddRoot()
	}
	r := shard.NewRouter(n)
	parts, mapping := shard.Split(base, r)
	shards := make([]*DB, len(parts))
	for s, p := range parts {
		shards[s] = NewDB(BuildOneIndex(p))
	}
	return wrap(shards), mapping
}

// WrapDB presents an existing single DB as a 1-shard ShardedDB: the
// striped codec is the identity at N = 1, so global ids equal the DB's
// own ids and every operation passes straight through. This is how the
// server runs unsharded stores through the sharded pipeline unchanged.
func WrapDB(db *DB) *ShardedDB { return wrap([]*DB{db}) }

func wrap(shards []*DB) *ShardedDB {
	roots := make([]NodeID, len(shards))
	for s, db := range shards {
		roots[s] = db.idx.Graph().Root()
	}
	return &ShardedDB{
		shards: shards,
		m:      shard.NewMap(shard.NewRouter(len(shards)), roots),
		labels: graph.NewInterner(),
	}
}

// NumShards returns the shard count.
func (sdb *ShardedDB) NumShards() int { return len(sdb.shards) }

// Shard returns shard s's DB. Direct writes on it take shard-local ids
// and bypass the facade's cross-shard coordination; the server's
// per-shard committers use this, routing through Map first.
func (sdb *ShardedDB) Shard(s int) *DB { return sdb.shards[s] }

// Map returns the global↔local translation layer.
func (sdb *ShardedDB) Map() *shard.Map { return sdb.m }

// Dir returns the sharded store directory ("" when in-memory or wrapped).
func (sdb *ShardedDB) Dir() string { return sdb.dir }

// GlobalRoot returns the single global root id.
func (sdb *ShardedDB) GlobalRoot() NodeID { return sdb.m.GlobalRoot() }

// ---- write path ----

// ApplyBatch applies a batch of edge updates (global ids) atomically.
// A batch confined to one shard commits on that shard alone, concurrently
// with other shards' writers. A cross-shard batch takes the facade
// exclusively, validates every shard's sub-batch, then commits them
// shard by shard — nothing is applied unless everything validates.
// A rejected batch returns *BatchError with indices and ids in the
// caller's (global) coordinates; a batch that would create a cross-shard
// edge is rejected with shard.ErrCrossShard.
func (sdb *ShardedDB) ApplyBatch(ops []EdgeOp) error {
	per, orig, err := sdb.m.SplitEdges(ops)
	if err != nil {
		return err
	}
	touched := -1
	multi := false
	for s := range per {
		if per[s] == nil {
			continue
		}
		if touched >= 0 {
			multi = true
			break
		}
		touched = s
	}
	if touched < 0 {
		return nil
	}
	if !multi {
		sdb.wmu.RLock()
		defer sdb.wmu.RUnlock()
		return sdb.m.GlobalizeBatchError(touched, sdb.shards[touched].ApplyBatch(per[touched]), orig[touched])
	}
	sdb.wmu.Lock()
	defer sdb.wmu.Unlock()
	for s := range per {
		if per[s] == nil {
			continue
		}
		if err := sdb.shards[s].ValidateBatch(per[s]); err != nil {
			return sdb.m.GlobalizeBatchError(s, err, orig[s])
		}
	}
	for s := range per {
		if per[s] == nil {
			continue
		}
		if err := sdb.shards[s].ApplyBatch(per[s]); err != nil {
			// Unreachable by construction: validation passed and the
			// exclusive lock excludes every other facade writer.
			return sdb.m.GlobalizeBatchError(s, err, orig[s])
		}
	}
	return nil
}

// ApplyScript runs an op script (global ids) with stop-at-first-error
// semantics. A script is a sequential program against one index, so all
// its ops must route to the same shard (an addnode under the global root
// is placed by its label; the rest of the script follows). Result ids and
// any *OpError come back in global coordinates.
func (sdb *ShardedDB) ApplyScript(ops []ScriptOp) (OpResult, error) {
	s, local, err := sdb.m.RouteScript(ops)
	if err != nil {
		return OpResult{}, err
	}
	sdb.wmu.RLock()
	defer sdb.wmu.RUnlock()
	res, aerr := sdb.shards[s].ApplyScript(local)
	res.NewNodes = sdb.m.GlobalizeNodes(s, res.NewNodes)
	return res, sdb.m.GlobalizeOpError(s, aerr)
}

// InsertEdge inserts a dedge (global ids) as its own commit window.
func (sdb *ShardedDB) InsertEdge(u, v NodeID, kind EdgeKind) error {
	_, err := sdb.ApplyScript([]ScriptOp{{Kind: opscript.Insert, U: u, V: v, Edge: kind}})
	return unwrapOpError(err)
}

// DeleteEdge deletes a dedge (global ids) as its own commit window.
func (sdb *ShardedDB) DeleteEdge(u, v NodeID) error {
	_, err := sdb.ApplyScript([]ScriptOp{{Kind: opscript.Delete, U: u, V: v}})
	return unwrapOpError(err)
}

// InsertNode adds a node labeled label under parent. A node added
// directly under the global root starts a new top-level subtree and is
// placed on the shard its label hashes to.
func (sdb *ShardedDB) InsertNode(label string, parent NodeID) (NodeID, error) {
	res, err := sdb.ApplyScript([]ScriptOp{{Kind: opscript.AddNode, Label: label, V: parent}})
	if err != nil {
		return InvalidNode, unwrapOpError(err)
	}
	return res.NewNodes[0], nil
}

// DeleteNode removes a node and its edges as its own commit window.
func (sdb *ShardedDB) DeleteNode(v NodeID) error {
	_, err := sdb.ApplyScript([]ScriptOp{{Kind: opscript.DelNode, U: v}})
	return unwrapOpError(err)
}

// DeleteSubtree removes the subtree rooted at root (tree edges only) from
// its shard and returns it in facade coordinates: Members and cross-edge
// endpoints as global ids, Labels in the facade's own label space — ready
// to re-graft anywhere via AddSubgraph.
func (sdb *ShardedDB) DeleteSubtree(root NodeID) (*Subgraph, error) {
	s, l := sdb.m.Resolve(root)
	sdb.wmu.RLock()
	names, sg, err := sdb.shards[s].DeleteSubtreeNamed(l)
	sdb.wmu.RUnlock()
	if err != nil {
		return nil, err
	}
	sdb.lmu.Lock()
	sg.Labels = make([]graph.LabelID, len(names))
	for i, name := range names {
		sg.Labels[i] = sdb.labels.Intern(name)
	}
	sdb.lmu.Unlock()
	sg.Members = sdb.m.GlobalizeNodes(s, sg.Members)
	for i := range sg.CrossIn {
		sg.CrossIn[i].Outside = sdb.m.ToGlobal(s, sg.CrossIn[i].Outside)
	}
	for i := range sg.CrossOut {
		sg.CrossOut[i].Outside = sdb.m.ToGlobal(s, sg.CrossOut[i].Outside)
	}
	return sg, nil
}

// AddSubgraph grafts a subgraph whose Labels are in the facade's label
// space and whose cross-edge endpoints are global ids (the form
// DeleteSubtree returns). The target shard is dictated by the cross
// edges: every non-root outside endpoint must be on one shard; a
// subgraph attached only to the root is a new top-level subtree, placed
// by the label of its attach point. Returns the new global ids,
// local-index order.
func (sdb *ShardedDB) AddSubgraph(sg *Subgraph) ([]NodeID, error) {
	if err := sg.Check(); err != nil {
		return nil, err
	}
	sdb.lmu.Lock()
	names := make([]string, len(sg.Labels))
	for i, l := range sg.Labels {
		names[i] = sdb.labels.Name(l)
	}
	sdb.lmu.Unlock()

	s := -1
	for _, ce := range append(append([]graph.CrossEdge(nil), sg.CrossIn...), sg.CrossOut...) {
		if sdb.m.IsRoot(ce.Outside) {
			continue
		}
		t := sdb.m.Router().ShardOf(ce.Outside)
		if s == -1 {
			s = t
		} else if s != t {
			return nil, shard.ErrCrossShard
		}
	}
	if s == -1 { // attached to the root alone (or detached): place by label
		at := 0
		if len(sg.CrossIn) > 0 {
			at = int(sg.CrossIn[0].Local)
		}
		s = sdb.m.Router().Place(names[at])
	}

	local := *sg
	local.CrossIn = append([]graph.CrossEdge(nil), sg.CrossIn...)
	local.CrossOut = append([]graph.CrossEdge(nil), sg.CrossOut...)
	for i := range local.CrossIn {
		local.CrossIn[i].Outside = sdb.localOn(s, local.CrossIn[i].Outside)
	}
	for i := range local.CrossOut {
		local.CrossOut[i].Outside = sdb.localOn(s, local.CrossOut[i].Outside)
	}
	sdb.wmu.RLock()
	ids, err := sdb.shards[s].AddSubgraphNamed(names, &local)
	sdb.wmu.RUnlock()
	if err != nil {
		return nil, err
	}
	return sdb.m.GlobalizeNodes(s, ids), nil
}

func (sdb *ShardedDB) localOn(s int, g NodeID) NodeID {
	if sdb.m.IsRoot(g) {
		return sdb.m.LocalRoot(s)
	}
	return sdb.m.Router().LocalOf(g)
}

// Sync fsyncs every shard's journal (explicit durability barrier).
func (sdb *ShardedDB) Sync() error {
	for s, db := range sdb.shards {
		if err := db.Sync(); err != nil {
			return fmt.Errorf("structix: shard %d: %w", s, err)
		}
	}
	return nil
}

// Validate checks graph and index invariants on every shard.
func (sdb *ShardedDB) Validate() error {
	for s, db := range sdb.shards {
		if err := db.Validate(); err != nil {
			return fmt.Errorf("structix: shard %d: %w", s, err)
		}
	}
	return nil
}

// SetExtentCodec switches every shard's snapshot extent representation
// (see DB.SetExtentCodec). Taken under the facade's exclusive lock so the
// per-shard re-freezes do not interleave with cross-shard batches.
func (sdb *ShardedDB) SetExtentCodec(c ExtentCodec) error {
	sdb.wmu.Lock()
	defer sdb.wmu.Unlock()
	for s, db := range sdb.shards {
		if err := db.SetExtentCodec(c); err != nil {
			return fmt.Errorf("structix: shard %d: %w", s, err)
		}
	}
	return nil
}

// Close seals every shard; the first error wins but all shards close.
func (sdb *ShardedDB) Close() error {
	var first error
	for s, db := range sdb.shards {
		if err := db.Close(); err != nil && first == nil {
			first = fmt.Errorf("structix: shard %d: %w", s, err)
		}
	}
	return first
}

// ShardStats returns each shard's durability counters, indexed by shard.
func (sdb *ShardedDB) ShardStats() []DBStats {
	out := make([]DBStats, len(sdb.shards))
	for s, db := range sdb.shards {
		out[s] = db.Stats()
	}
	return out
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

// Snapshot gathers the current snapshot of every shard.
func (sdb *ShardedDB) Snapshot() *ShardedSnapshot {
	snaps := make([]*Snapshot, len(sdb.shards))
	for s, db := range sdb.shards {
		snaps[s] = db.Snapshot()
	}
	return &ShardedSnapshot{m: sdb.m, snaps: snaps}
}

// NumShards returns the shard count.
func (ss *ShardedSnapshot) NumShards() int { return len(ss.snaps) }

// Shard returns shard s's snapshot.
func (ss *ShardedSnapshot) Shard(s int) *Snapshot { return ss.snaps[s] }

// Map returns the translation layer the snapshot's results are merged
// through.
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

// Eval evaluates a path expression against the current snapshot vector.
func (sdb *ShardedDB) Eval(p *Path) []NodeID { return sdb.Snapshot().Eval(p) }

// Count returns the exact result size from the current snapshot vector.
func (sdb *ShardedDB) Count(p *Path) int { return sdb.Snapshot().Count(p) }
