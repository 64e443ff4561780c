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
//   - Map: Router plus the per-shard root ids, routing write records
//     (edge batches, op scripts, subgraphs) to shards and translating
//     results and errors back;
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
	"fmt"
	"hash/fnv"
	"slices"

	"structix/internal/graph"
	"structix/internal/maint"
	"structix/internal/opscript"
	"structix/internal/wal"
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
// RouteEdge/Route instead.
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

// Part is the share of one write record that lands on one shard: the
// record in that shard's local ids, and for an edge batch the index in
// the caller's record of each of its ops (nil when the indexes agree).
type Part struct {
	Shard int
	Rec   *wal.Record
	Orig  []int
}

// SplitEdges is Route for an edge batch (global ids): one part per shard
// the batch has ops for, in shard order, each op in local ids and its
// index in ops kept in Orig. The first op whose endpoints live on
// different shards is a *graph.BatchError with cause ErrCrossShard, in
// the caller's coordinates.
func (m *Map) SplitEdges(ops []graph.EdgeOp) ([]Part, error) {
	per := make([]Part, m.r.n)
	for i, op := range ops {
		s, lu, lv, err := m.RouteEdge(op.U, op.V)
		if err != nil {
			return nil, &graph.BatchError{OpIndex: i, Op: op, Err: err}
		}
		if per[s].Rec == nil {
			per[s] = Part{Shard: s, Rec: &wal.Record{Kind: wal.RecEdges}}
		}
		op.U, op.V = lu, lv
		per[s].Rec.Edges = append(per[s].Rec.Edges, op)
		per[s].Orig = append(per[s].Orig, i)
	}
	return slices.DeleteFunc(per, func(p Part) bool { return p.Rec == nil }), nil
}

// Route splits a write record (global ids) into per-shard parts, in shard
// order, touching no shard it has no op for. An edge batch splits op by op
// (SplitEdges); a script is a sequential stream against one index, so it
// routes whole to one shard (see routeScript); a subgraph goes whole to
// the shard its cross edges name — one attached to the root alone (or
// detached) is a new top-level subtree, placed by the label of its attach
// point. A record that would span shards is refused in the caller's
// coordinates: a *graph.BatchError at an edge batch's first cross-shard
// op, an *opscript.OpError at a script's first op that disagrees on the
// shard, ErrCrossShard for a subgraph. A record with no op has no parts.
// On one shard every id is already local and a record is its own part.
//
// The parts commit independently (see Fold): they touch disjoint graphs,
// so nothing in the index needs them to commit together.
func (m *Map) Route(rec *wal.Record) ([]Part, error) {
	if rec.Ops() == 0 {
		return nil, nil
	}
	if m.r.n == 1 {
		return []Part{{Rec: rec}}, nil
	}
	switch rec.Kind {
	case wal.RecEdges:
		return m.SplitEdges(rec.Edges)
	case wal.RecScript:
		s, err := m.routeScript(rec.Script)
		if err != nil {
			return nil, err
		}
		local := make([]opscript.Op, len(rec.Script))
		for i, op := range rec.Script {
			op.U, op.V = m.localOn(s, op.U), m.localOn(s, op.V)
			local[i] = op
		}
		return []Part{{Shard: s, Rec: &wal.Record{Kind: wal.RecScript, Script: local}}}, nil
	case wal.RecSubgraph:
		p := rec.Sub
		s := -1
		for _, ce := range slices.Concat(p.CrossIn, p.CrossOut) {
			if m.IsRoot(ce.Outside) {
				continue
			}
			if t := m.r.ShardOf(ce.Outside); s == -1 {
				s = t
			} else if s != t {
				return nil, ErrCrossShard
			}
		}
		if s == -1 {
			at := 0
			if len(p.CrossIn) > 0 {
				at = int(p.CrossIn[0].Local)
			}
			s = m.r.Place(p.Labels[at])
		}
		local := *p
		local.CrossIn = m.localCross(s, p.CrossIn)
		local.CrossOut = m.localCross(s, p.CrossOut)
		return []Part{{Shard: s, Rec: &wal.Record{Kind: wal.RecSubgraph, Sub: &local}}}, nil
	}
	return nil, fmt.Errorf("shard: cannot route record kind %v", rec.Kind)
}

func (m *Map) localCross(s int, cross []graph.CrossEdge) []graph.CrossEdge {
	out := make([]graph.CrossEdge, len(cross))
	for i, ce := range cross {
		ce.Outside = m.localOn(s, ce.Outside)
		out[i] = ce
	}
	return out
}

// routeScript picks the one shard a script runs on: edge ops route like
// RouteEdge, delnode/delsub by their target, and addnode by its parent —
// except an addnode directly under the global root, which is a new
// top-level subtree and is placed by its label. The first op that
// disagrees with the ops before it is an *opscript.OpError with cause
// ErrCrossShard. A script whose every op is placement-free (all ops
// target the root alone) routes to shard 0.
func (m *Map) routeScript(ops []opscript.Op) (int, error) {
	s := -1
	for i, op := range ops {
		t := -1
		switch op.Kind {
		case opscript.Insert, opscript.Delete:
			var err error
			if t, _, _, err = m.RouteEdge(op.U, op.V); err != nil {
				return 0, &opscript.OpError{Index: i, Op: op, Err: err}
			}
			if m.IsRoot(op.U) && m.IsRoot(op.V) {
				t = -1 // degenerate; any shard rejects it identically
			}
		case opscript.AddNode:
			if m.IsRoot(op.V) {
				t = m.r.Place(op.Label)
			} else {
				t = m.r.ShardOf(op.V)
			}
		default: // DelNode, DelSub
			if !m.IsRoot(op.U) {
				t = m.r.ShardOf(op.U)
			}
		}
		if t != -1 && s != -1 && t != s {
			return 0, &opscript.OpError{Index: i, Op: op, Err: ErrCrossShard}
		}
		if s == -1 {
			s = t
		}
	}
	return max(s, 0), nil
}

// AppendGlobal appends shard s's local ids to dst translated to global
// ids, in order, and returns the extended slice — the one id translator
// of results: query sections, a fold's NewNodes, a cut's members. Each id
// is read before its slot in dst is written, so AppendGlobal(ids[:0], s,
// ids) translates ids in place.
func (m *Map) AppendGlobal(dst []graph.NodeID, s int, locals []graph.NodeID) []graph.NodeID {
	for _, l := range locals {
		dst = append(dst, m.ToGlobal(s, l))
	}
	return dst
}

// Outcome is what committing one part produced: its result in the
// shard's local ids, and its error.
type Outcome struct {
	Res opscript.Result
	Err error
}

// Fold combines the outcomes of a record's parts, outs[i] being parts[i]'s,
// into the record's one outcome in the caller's coordinates: the counts
// summed, NewNodes globalized and concatenated in part order, and the
// first failing part's error re-based by Globalize. Each part commits on
// its own shard whatever its siblings did, so a failed part leaves the
// others' commits standing and the summed Applied counts them.
func (m *Map) Fold(parts []Part, outs []Outcome) (opscript.Result, error) {
	var res opscript.Result
	var err error
	for i, o := range outs {
		res.Applied += o.Res.Applied
		res.Inserted += o.Res.Inserted
		res.Deleted += o.Res.Deleted
		res.Removed += o.Res.Removed
		res.NewNodes = m.AppendGlobal(res.NewNodes, parts[i].Shard, o.Res.NewNodes)
		if o.Err != nil && err == nil {
			err = m.Globalize(parts[i], o.Err)
		}
	}
	return res, err
}

// Globalize re-bases an error from part p into the caller's coordinate
// space: a *graph.BatchError's op index through p.Orig and its op's node
// ids to global, an *opscript.OpError's op ids to global (a script routes
// whole, so its index already agrees), and a *maint.NodeError's node id
// to global, also as the cause of either. Other errors pass through.
func (m *Map) Globalize(p Part, err error) error {
	var be *graph.BatchError
	var oe *opscript.OpError
	var ne *maint.NodeError
	cause := Part{Shard: p.Shard}
	switch {
	case errors.As(err, &be):
		idx := be.OpIndex
		if p.Orig != nil && idx >= 0 && idx < len(p.Orig) {
			idx = p.Orig[idx]
		}
		op := be.Op
		op.U, op.V = m.ToGlobal(p.Shard, op.U), m.ToGlobal(p.Shard, op.V)
		return &graph.BatchError{OpIndex: idx, Op: op, Err: m.Globalize(cause, be.Err)}
	case errors.As(err, &oe):
		op := oe.Op
		op.U, op.V = m.ToGlobal(p.Shard, op.U), m.ToGlobal(p.Shard, op.V)
		return &opscript.OpError{Index: oe.Index, Op: op, Err: m.Globalize(cause, oe.Err)}
	case errors.As(err, &ne):
		return &maint.NodeError{Text: ne.Text, Node: m.ToGlobal(p.Shard, ne.Node), Err: ne.Err}
	}
	return err
}
