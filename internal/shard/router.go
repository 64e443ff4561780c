// Package shard partitions a structix database into N independent shards
// for in-process write scale-out (ROADMAP item 2). The paper's maintenance
// algorithms are local to the affected set, so batches confined to one
// shard are coordination-free: each shard owns a complete graph (its own
// root plus whole top-level subtrees), its own 1-index, its own commit
// window, and — when durable — its own write-ahead-log directory. The
// single global costs of the unsharded store, snapshot publication
// (O(total graph) per commit) and the one group-commit pipeline, become
// per-shard costs of 1/N the size.
//
// The package provides the deterministic placement layer:
//
//   - Router: the global↔(shard, local) NodeID codec and the label-hash
//     placement function for new top-level subtrees;
//   - Map: Router plus the per-shard root ids, routing whole edge batches
//     and op scripts to shards and translating results back;
//   - Split: the bootstrap partitioner, assigning each connected component
//     of root-children to a shard.
//
// Global NodeIDs are striped: global = local·N + shard, so shard(g) = g
// mod N and local(g) = g div N — O(1) both ways, stable under growth of
// any shard, and the identity when N = 1 (an unsharded store is exactly a
// 1-shard store). The one exception is the root: every shard carries its
// own replica of the distinguished ROOT node, and all replicas present as
// the single global root id (shard 0's). An IDREF edge into the root can
// put it in a path-expression result on several shards at once; a gathered
// result lists it once.
package shard

import (
	"errors"
	"hash/fnv"

	"structix/internal/graph"
	"structix/internal/opscript"
)

// ErrCrossShard is returned when a batch, script or subgraph references
// nodes placed on different shards. Shards are coordination-free by
// construction: there are no cross-shard edges, so an op stream that
// would create one is rejected before anything is applied.
var ErrCrossShard = errors.New("shard: operation spans multiple shards")

// Router is the pure placement arithmetic: the striped NodeID codec and
// the label-hash shard chooser. A Router is immutable and safe for
// concurrent use.
type Router struct {
	n int
}

// NewRouter returns a router over n shards (n < 1 is treated as 1).
func NewRouter(n int) *Router {
	if n < 1 {
		n = 1
	}
	return &Router{n: n}
}

// Shards returns the shard count.
func (r *Router) Shards() int { return r.n }

// ShardOf returns the shard a global NodeID is striped onto. Invalid ids
// (negative) map to shard 0 so that untrusted input routes somewhere a
// shard store can reject with its usual typed error instead of panicking.
func (r *Router) ShardOf(g graph.NodeID) int {
	if g < 0 {
		return 0
	}
	return int(g) % r.n
}

// LocalOf returns the shard-local NodeID of a global id. Invalid ids pass
// through unchanged (see ShardOf).
func (r *Router) LocalOf(g graph.NodeID) graph.NodeID {
	if g < 0 {
		return g
	}
	return g / graph.NodeID(r.n)
}

// GlobalOf returns the global NodeID of shard-local id l on shard s.
// Invalid local ids pass through unchanged.
func (r *Router) GlobalOf(s int, l graph.NodeID) graph.NodeID {
	if l < 0 {
		return l
	}
	return l*graph.NodeID(r.n) + graph.NodeID(s)
}

// Place maps a label to a shard: the deterministic home of a new
// top-level subtree (a node or subgraph grafted directly under the global
// root). Same label, same shard — the "label prefix" placement — so
// same-labeled document subtrees cluster and a re-added subtree returns
// to the shard its label dictates.
func (r *Router) Place(label string) int {
	return r.PlaceOrdinal(label, 0)
}

// PlaceOrdinal is Place with an occurrence ordinal mixed into the hash,
// used by the bootstrap splitter to spread many same-labeled top-level
// subtrees across shards instead of stacking them all on one.
func (r *Router) PlaceOrdinal(label string, ordinal int) int {
	h := fnv.New32a()
	h.Write([]byte(label))
	var ord [4]byte
	ord[0] = byte(ordinal)
	ord[1] = byte(ordinal >> 8)
	ord[2] = byte(ordinal >> 16)
	ord[3] = byte(ordinal >> 24)
	h.Write(ord[:])
	return int(h.Sum32() % uint32(r.n))
}

// Map is a Router bound to the per-shard local root ids: the full
// translation layer between the global address space callers see and the
// local spaces the shard stores live in. Immutable and safe for
// concurrent use.
type Map struct {
	r     *Router
	roots []graph.NodeID // local root id per shard
	gRoot graph.NodeID   // the single global root id (shard 0's root)
}

// NewMap binds a router to the local root id of each shard. len(roots)
// must equal the router's shard count.
func NewMap(r *Router, roots []graph.NodeID) *Map {
	if len(roots) != r.Shards() {
		panic("shard: NewMap roots/shard-count mismatch")
	}
	return &Map{r: r, roots: append([]graph.NodeID(nil), roots...), gRoot: r.GlobalOf(0, roots[0])}
}

// Router returns the underlying placement arithmetic.
func (m *Map) Router() *Router { return m.r }

// Shards returns the shard count.
func (m *Map) Shards() int { return m.r.n }

// GlobalRoot returns the single global root id.
func (m *Map) GlobalRoot() graph.NodeID { return m.gRoot }

// LocalRoot returns shard s's local root id.
func (m *Map) LocalRoot(s int) graph.NodeID { return m.roots[s] }

// IsRoot reports whether g is the global root id.
func (m *Map) IsRoot(g graph.NodeID) bool { return g == m.gRoot }

// ToGlobal translates a shard-local id to its global id; every shard's
// local root translates to the one global root.
func (m *Map) ToGlobal(s int, l graph.NodeID) graph.NodeID {
	if l == m.roots[s] {
		return m.gRoot
	}
	return m.r.GlobalOf(s, l)
}

// Resolve translates a global id to (shard, local). The global root
// resolves to shard 0's replica; ops that may legally target the root on
// any shard (edge endpoints, AddNode parents) route around it with
// RouteEdge/RouteScript instead.
func (m *Map) Resolve(g graph.NodeID) (int, graph.NodeID) {
	if g == m.gRoot {
		return 0, m.roots[0]
	}
	return m.r.ShardOf(g), m.r.LocalOf(g)
}

// RouteEdge routes the edge u→v (global ids) to the one shard that owns
// both endpoints, translating them to local ids. An endpoint that is the
// global root follows the other endpoint (the root is replicated on every
// shard); two non-root endpoints on different shards are ErrCrossShard.
func (m *Map) RouteEdge(u, v graph.NodeID) (s int, lu, lv graph.NodeID, err error) {
	switch {
	case m.IsRoot(u) && m.IsRoot(v):
		s = 0
	case m.IsRoot(u):
		s = m.r.ShardOf(v)
	case m.IsRoot(v):
		s = m.r.ShardOf(u)
	default:
		s = m.r.ShardOf(u)
		if m.r.ShardOf(v) != s {
			return 0, 0, 0, ErrCrossShard
		}
	}
	lu, lv = m.localOn(s, u), m.localOn(s, v)
	return s, lu, lv, nil
}

// localOn translates g to its local id as seen by shard s; the global
// root becomes s's own root replica.
func (m *Map) localOn(s int, g graph.NodeID) graph.NodeID {
	if m.IsRoot(g) {
		return m.roots[s]
	}
	return m.r.LocalOf(g)
}

// SplitEdges partitions a batch of edge ops (global ids) by shard. It
// returns, per shard, the translated sub-batch and the original batch
// index of each of its ops (for re-basing a *graph.BatchError into the
// caller's coordinate space). Shards with no ops get nil slices.
func (m *Map) SplitEdges(ops []graph.EdgeOp) (perShard [][]graph.EdgeOp, origIdx [][]int, err error) {
	perShard = make([][]graph.EdgeOp, m.r.n)
	origIdx = make([][]int, m.r.n)
	for i, op := range ops {
		s, lu, lv, rerr := m.RouteEdge(op.U, op.V)
		if rerr != nil {
			return nil, nil, rerr
		}
		lop := op
		lop.U, lop.V = lu, lv
		perShard[s] = append(perShard[s], lop)
		origIdx[s] = append(origIdx[s], i)
	}
	return perShard, origIdx, nil
}

// RouteScript routes a whole op script (global ids) to a single shard and
// returns the translated ops. Scripts are a sequential stream against one
// index, so every op must land on the same shard: edge ops route like
// RouteEdge, delnode/delsub by their target, and addnode by its parent —
// except an addnode directly under the global root, which is a new
// top-level subtree and is placed by its label. A script whose ops
// disagree is ErrCrossShard. A script whose every op is placement-free
// (all ops target the root alone) routes to the placement of the first
// addnode label, or shard 0 if there is none.
func (m *Map) RouteScript(ops []opscript.Op) (int, []opscript.Op, error) {
	s := -1
	claim := func(t int) error {
		if s == -1 {
			s = t
		} else if s != t {
			return ErrCrossShard
		}
		return nil
	}
	for _, op := range ops {
		switch op.Kind {
		case opscript.Insert, opscript.Delete:
			if m.IsRoot(op.U) && m.IsRoot(op.V) {
				continue // degenerate; any shard rejects it identically
			}
			if m.IsRoot(op.U) {
				if err := claim(m.r.ShardOf(op.V)); err != nil {
					return 0, nil, err
				}
			} else if m.IsRoot(op.V) {
				if err := claim(m.r.ShardOf(op.U)); err != nil {
					return 0, nil, err
				}
			} else {
				if m.r.ShardOf(op.U) != m.r.ShardOf(op.V) {
					return 0, nil, ErrCrossShard
				}
				if err := claim(m.r.ShardOf(op.U)); err != nil {
					return 0, nil, err
				}
			}
		case opscript.AddNode:
			if m.IsRoot(op.V) {
				if err := claim(m.r.Place(op.Label)); err != nil {
					return 0, nil, err
				}
			} else {
				if err := claim(m.r.ShardOf(op.V)); err != nil {
					return 0, nil, err
				}
			}
		default: // DelNode, DelSub
			if !m.IsRoot(op.U) {
				if err := claim(m.r.ShardOf(op.U)); err != nil {
					return 0, nil, err
				}
			}
		}
	}
	if s == -1 {
		s = 0
	}
	local := make([]opscript.Op, len(ops))
	for i, op := range ops {
		lop := op
		lop.U = m.localOn(s, op.U)
		lop.V = m.localOn(s, op.V)
		local[i] = lop
	}
	return s, local, nil
}

// GlobalizeNodes translates shard-local ids to global ids in place and
// returns the slice (result translation for NewNodes and query extents).
func (m *Map) GlobalizeNodes(s int, ids []graph.NodeID) []graph.NodeID {
	for i, l := range ids {
		ids[i] = m.ToGlobal(s, l)
	}
	return ids
}

// AppendGlobal appends shard s's local result ids to dst translated to
// global ids — the order-preserving merge step of scatter-gather: each
// shard's extent order is preserved, shards are concatenated in shard
// order, and a caller-presized dst makes the whole merge allocation-free.
func (m *Map) AppendGlobal(dst []graph.NodeID, s int, locals []graph.NodeID) []graph.NodeID {
	for _, l := range locals {
		dst = append(dst, m.ToGlobal(s, l))
	}
	return dst
}

// GlobalizeEdgeOp translates a shard-local edge op back to global ids
// (BatchError round-tripping).
func (m *Map) GlobalizeEdgeOp(s int, op graph.EdgeOp) graph.EdgeOp {
	op.U = m.ToGlobal(s, op.U)
	op.V = m.ToGlobal(s, op.V)
	return op
}

// GlobalizeOp translates a shard-local script op back to global ids
// (OpError round-tripping).
func (m *Map) GlobalizeOp(s int, op opscript.Op) opscript.Op {
	op.U = m.ToGlobal(s, op.U)
	op.V = m.ToGlobal(s, op.V)
	return op
}

// GlobalizeBatchError re-bases a shard-local *graph.BatchError into the
// caller's coordinate space: the op index via origIdx (from SplitEdges;
// nil means the indexes already agree) and the op's node ids to global.
// Non-BatchError errors pass through untouched.
func (m *Map) GlobalizeBatchError(s int, err error, origIdx []int) error {
	var be *graph.BatchError
	if !errors.As(err, &be) {
		return err
	}
	idx := be.OpIndex
	if origIdx != nil && idx >= 0 && idx < len(origIdx) {
		idx = origIdx[idx]
	}
	return &graph.BatchError{OpIndex: idx, Op: m.GlobalizeEdgeOp(s, be.Op), Err: be.Err}
}

// GlobalizeOpError re-bases a shard-local *opscript.OpError: the index is
// already in the script's own coordinates (scripts route whole), so only
// the op's node ids translate. Non-OpErrors pass through untouched.
func (m *Map) GlobalizeOpError(s int, err error) error {
	var oe *opscript.OpError
	if !errors.As(err, &oe) {
		return err
	}
	return &opscript.OpError{Index: oe.Index, Op: m.GlobalizeOp(s, oe.Op), Err: oe.Err}
}
