// Package maint is the op driver of incremental structural-index
// maintenance (Yi et al., SIGMOD 2004): edge, node and subtree updates
// decompose here, once, into graph mutations and maintenance rounds, for
// both index families. A round ingests edge ops the graph already
// carries, collecting each dnode whose index membership they disturbed
// once, then finishes with one split phase and one merge phase; Figure 3
// (the 1-index) and Figure 7 (the A(k) family) are the round over one op.
// What a round does to the index is the family's Kernel; the Driver does
// the rest. No deletion strands nodes below a deleted graph root.
package maint

import (
	"fmt"
	"slices"

	"structix/internal/graph"
	"structix/internal/ilist"
)

// NodeError is a refusal that names one node: Text formats Node (its one
// verb) and Err is the cause, graph.ErrDeadNode or graph.ErrRootNode. The
// id is typed so a store that translates ids, a sharded one, can rewrite
// it into its caller's coordinates.
type NodeError struct {
	Text string
	Node graph.NodeID
	Err  error
}

func (e *NodeError) Error() string { return fmt.Sprintf(e.Text, e.Node) + ": " + e.Err.Error() }

// Unwrap exposes the cause to errors.Is/errors.As.
func (e *NodeError) Unwrap() error { return e.Err }

// Kernel is one index family's half of a maintenance round.
type Kernel interface {
	// Ingest records one edge op the graph already carries in the
	// index's edge counts and, when the op disturbed its sink's index
	// membership, adds the sink to r (Figure 3's iedge test, Figure 7's
	// largest stable level).
	Ingest(r *Round, op graph.EdgeOp)
	// AffectNew adds a parentless newcomer to r: no edge op disturbs it,
	// but it may merge with an existing inode.
	AffectNew(r *Round, v graph.NodeID)
	// Finish ends a round over its affected dnodes, sorted and possibly
	// none: one split phase seeded with them, then one merge phase.
	Finish(affected []graph.NodeID)
	// Grow extends the index's dnode-indexed arrays after the graph grew.
	Grow()
	// Place puts a newborn dnode, with no edges yet, in the index.
	Place(v graph.NodeID)
	// Drop removes a dnode the graph no longer has; it had no edges left.
	Drop(v graph.NodeID)
	// Uncount removes the edge u→w of an island about to be removed from
	// the index's edge counts.
	Uncount(u, w graph.NodeID)
	// Union adds a just-inserted subgraph's own index to the index: ids
	// are sg's nodes in the graph, local the same nodes in sub, sg's
	// standalone graph. It returns the node the root round must affect
	// (AffectNew), or graph.InvalidNode.
	Union(sg *graph.Subgraph, sub *graph.Graph, local, ids []graph.NodeID) graph.NodeID
}

// Round is the affected set of one maintenance round: every dnode
// appears once, deduplicated through epoch stamps, so a round never
// clears them. It lives on the index between rounds, keeping its storage.
type Round struct {
	stamp    []uint32 // by dnode: the epoch of the round that last added it
	epoch    uint32
	affected []graph.NodeID
}

// Add adds v to the round's affected set and reports whether v is new to
// it this round.
func (r *Round) Add(v graph.NodeID) bool {
	if r.stamp[v] == r.epoch {
		return false
	}
	r.stamp[v] = r.epoch
	r.affected = append(r.affected, v)
	return true
}

// begin opens a round over a graph of n node slots: a fresh epoch
// invalidates every earlier round's stamps; only a wrap of the counter
// clears them.
func (r *Round) begin(n int) {
	r.stamp = ilist.Resize(r.stamp, n) // the graph never shrinks
	r.epoch++
	if r.epoch == 0 {
		clear(r.stamp[:cap(r.stamp)])
		r.epoch = 1
	}
}

// Driver runs every maintenance entry point over graph G, index kernel K
// and the index's round state R. It is a value built per call: it holds
// nothing of its own.
type Driver struct {
	G *graph.Graph
	K Kernel
	R *Round
}

// ApplyBatch applies a sequence of edge updates as one maintenance round:
// every op is applied to the graph and ingested in order, so an op may
// delete an edge inserted earlier in the batch; then the kernel finishes
// once over the deduplicated affected set. E ops share one split phase and
// one merge phase instead of running E of each.
//
// The batch is atomic: it is validated against the current graph,
// simulating the ops in order, before anything is applied. On a bad op —
// duplicate insert, missing delete, dead endpoint, self-loop — ApplyBatch
// returns a *graph.BatchError naming it and leaves graph and index as
// they were.
func (d Driver) ApplyBatch(ops []graph.EdgeOp) error {
	if len(ops) == 0 {
		return nil
	}
	return d.round(ops, graph.InvalidNode)
}

// round validates ops and runs one maintenance round over them; also,
// unless InvalidNode, joins the affected set whatever the ops do.
func (d Driver) round(ops []graph.EdgeOp, also graph.NodeID) error {
	if err := d.G.ValidateOps(ops); err != nil {
		return err
	}
	d.R.begin(int(d.G.MaxNodeID()))
	for _, op := range ops {
		var err error
		if op.Insert {
			err = d.G.AddEdge(op.U, op.V, op.Kind)
		} else {
			err = d.G.DeleteEdge(op.U, op.V)
		}
		if err != nil {
			panic("maint: validated op failed: " + err.Error())
		}
		d.K.Ingest(d.R, op)
	}
	if also != graph.InvalidNode {
		d.K.AffectNew(d.R, also)
	}
	d.finish()
	return nil
}

// finish hands the round's affected set to the kernel, sorted, and
// empties it; the stamps expire with the epoch.
func (d Driver) finish() {
	slices.Sort(d.R.affected)
	d.K.Finish(d.R.affected)
	d.R.affected = d.R.affected[:0]
}

// InsertEdge adds the dedge u→v and runs the round over that one op. The
// graph's errors (graph.ErrEdgeExists, graph.ErrSelfLoop) come back bare.
func (d Driver) InsertEdge(u, v graph.NodeID, kind graph.EdgeKind) error {
	return d.one(d.G.AddEdge(u, v, kind), graph.InsertOp(u, v, kind))
}

// DeleteEdge removes the dedge u→v and runs the round over that one op.
func (d Driver) DeleteEdge(u, v graph.NodeID) error {
	return d.one(d.G.DeleteEdge(u, v), graph.DeleteOp(u, v))
}

// one runs the round over op, which the graph carries unless applying it
// failed with err.
func (d Driver) one(err error, op graph.EdgeOp) error {
	if err != nil {
		return err
	}
	d.R.begin(int(d.G.MaxNodeID()))
	d.K.Ingest(d.R, op)
	d.finish()
	return nil
}

// InsertNode adds a dnode with the given label and, unless parent is
// InvalidNode, attaches it below parent with an edge of the given kind.
// The kernel places the newborn node in an inode of its own; the edge's
// round (or, for a detached node, a round with no op that affects it)
// then merges it into an existing inode where one fits. A parent that is
// not a live node is graph.ErrDeadNode. Returns the new NodeID.
func (d Driver) InsertNode(label graph.LabelID, parent graph.NodeID, kind graph.EdgeKind) (graph.NodeID, error) {
	if parent != graph.InvalidNode && !d.G.Alive(parent) {
		return graph.InvalidNode, &NodeError{"maint: parent %d", parent, graph.ErrDeadNode}
	}
	v := d.G.AddNodeL(label)
	d.K.Grow()
	d.K.Place(v)
	if parent == graph.InvalidNode {
		return v, d.round(nil, v)
	}
	if err := d.InsertEdge(parent, v, kind); err != nil {
		return graph.InvalidNode, err
	}
	return v, nil
}

// DeleteNode removes dnode v: every incident edge is deleted by its own
// round, so the index stays maintained throughout, then the isolated node
// is dropped. Dropping it changes no other dnode's index parents. A dead
// v is graph.ErrDeadNode; the graph root is graph.ErrRootNode unless it is
// the last node, with nothing left to strand.
func (d Driver) DeleteNode(v graph.NodeID) error {
	if !d.G.Alive(v) {
		return &NodeError{"maint: node %d", v, graph.ErrDeadNode}
	}
	if v == d.G.Root() && d.G.NumNodes() > 1 {
		return &NodeError{"maint: node %d", v, graph.ErrRootNode}
	}
	for _, s := range d.G.Succ(v) {
		if err := d.DeleteEdge(v, s); err != nil {
			return err
		}
	}
	for _, p := range d.G.Pred(v) {
		if err := d.DeleteEdge(p, v); err != nil {
			return err
		}
	}
	d.G.RemoveNode(v)
	d.K.Drop(v)
	return nil
}

// AddSubgraph grafts a rooted subgraph into the graph and maintains the
// index: it inserts the subgraph's nodes and internal edges, has the
// kernel union the subgraph's own index in, attaches the subgraph root by
// one round over all its incoming cross edges, then inserts every other
// cross edge by its own round. It returns the NodeIDs assigned to the
// subgraph's local nodes. A malformed subgraph is graph.ErrBadSubgraph,
// and a cross edge to a node that is not live, or one given twice, is a
// *NodeError (graph.ErrDeadNode, graph.ErrEdgeExists), before any node is
// added.
func (d Driver) AddSubgraph(sg *graph.Subgraph) ([]graph.NodeID, error) {
	if sg.NumNodes() == 0 {
		return nil, nil
	}
	sub, local, err := sg.BuildGraph(d.G.Labels())
	if err != nil {
		return nil, err
	}
	if err := d.checkCross(sg); err != nil {
		return nil, err
	}
	ids, err := sg.InsertNodes(d.G)
	if err != nil {
		return nil, err
	}
	d.K.Grow()
	also := d.K.Union(sg, sub, local, ids)

	var rootIn []graph.EdgeOp
	for _, ce := range sg.CrossIn {
		if ce.Local == 0 {
			rootIn = append(rootIn, graph.InsertOp(ce.Outside, ids[0], ce.Kind))
		}
	}
	if err := d.round(rootIn, also); err != nil {
		return nil, fmt.Errorf("cross edge into subgraph root: %w", err)
	}
	for _, ce := range sg.CrossIn {
		if ce.Local == 0 {
			continue
		}
		if err := d.InsertEdge(ce.Outside, ids[ce.Local], ce.Kind); err != nil {
			return nil, fmt.Errorf("cross edge into subgraph: %w", err)
		}
	}
	for _, ce := range sg.CrossOut {
		if err := d.InsertEdge(ids[ce.Local], ce.Outside, ce.Kind); err != nil {
			return nil, fmt.Errorf("cross edge out of subgraph: %w", err)
		}
	}
	return ids, nil
}

// checkCross rejects the cross edges that could not be inserted once the
// subgraph's nodes are: one whose outside endpoint is not live, and one
// given twice. Nothing else about a cross edge can fail.
func (d Driver) checkCross(sg *graph.Subgraph) error {
	seen := make(map[[3]int64]bool)
	for dir, cross := range [][]graph.CrossEdge{sg.CrossIn, sg.CrossOut} {
		for _, ce := range cross {
			e := [3]int64{int64(ce.Outside), int64(ce.Local), int64(dir)}
			switch {
			case !d.G.Alive(ce.Outside):
				return &NodeError{"maint: cross edge endpoint %d", ce.Outside, graph.ErrDeadNode}
			case seen[e]:
				return &NodeError{"maint: cross edge endpoint %d", ce.Outside, graph.ErrEdgeExists}
			}
			seen[e] = true
		}
	}
	return nil
}

// DeleteSubgraph removes the subtree rooted at root (following tree edges
// only if skipIDRef is set, the graph.Extract convention) and maintains
// the index. It returns the extracted Subgraph, ready to be re-added.
//
// Every boundary-crossing edge is deleted by its own round, after which
// no remaining dnode has a parent or child in the subtree; the isolated
// island is then removed wholesale. That keeps the index valid and
// minimal: surviving dnodes keep their index parents, and every inode
// either keeps outside members or disappears with the island. CheckDelete
// runs first, so a rejected deletion changes nothing.
func (d Driver) DeleteSubgraph(root graph.NodeID, skipIDRef bool) (*graph.Subgraph, error) {
	if err := d.CheckDelete(root, skipIDRef); err != nil {
		return nil, err
	}
	sg := graph.Extract(d.G, root, skipIDRef)
	for _, ce := range sg.CrossIn {
		if err := d.DeleteEdge(ce.Outside, sg.Members[ce.Local]); err != nil {
			return nil, fmt.Errorf("detach cross-in edge: %w", err)
		}
	}
	for _, ce := range sg.CrossOut {
		if err := d.DeleteEdge(sg.Members[ce.Local], ce.Outside); err != nil {
			return nil, fmt.Errorf("detach cross-out edge: %w", err)
		}
	}
	// Each internal edge is un-counted once: RemoveNode deletes w's edges,
	// so later members no longer carry them. Any other edge left on the
	// island is one the detach missed, and has corrupted the counts.
	n := 0
	for _, w := range sg.Members {
		d.G.EachSucc(w, func(s graph.NodeID, _ graph.EdgeKind) { d.K.Uncount(w, s); n++ })
		d.G.EachPred(w, func(p graph.NodeID, _ graph.EdgeKind) { d.K.Uncount(p, w); n++ })
		d.G.RemoveNode(w)
		d.K.Drop(w)
	}
	if n != len(sg.Edges) {
		panic("maint: island still attached")
	}
	return sg, nil
}

// CheckDelete reports whether the subtree rooted at root (tree edges
// only if skipIDRef is set) may be deleted: a dead root is
// graph.ErrDeadNode, and a subtree holding the graph root is
// graph.ErrRootNode.
func (d Driver) CheckDelete(root graph.NodeID, skipIDRef bool) error {
	if !d.G.Alive(root) {
		return &NodeError{"maint: node %d", root, graph.ErrDeadNode}
	}
	if slices.Contains(d.G.Reachable(root, skipIDRef), d.G.Root()) {
		return &NodeError{"maint: subtree of %d holds the root", root, graph.ErrRootNode}
	}
	return nil
}
