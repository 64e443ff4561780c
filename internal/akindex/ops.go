package akindex

import (
	"structix/internal/graph"
	"structix/internal/maint"
)

// ops is the op driver over this family's round kernel.
func (x *Index) ops() maint.Driver {
	return maint.Driver{G: x.g, K: (*kernel)(x), R: &x.round}
}

// ApplyBatch applies a sequence of edge updates atomically as one
// maintenance round (maint.Driver.ApplyBatch). The result equals applying
// the ops one at a time (Theorem 2: the minimum A(0..k) family is unique
// on any graph, cyclic or not).
func (x *Index) ApplyBatch(ops []graph.EdgeOp) error { return x.ops().ApplyBatch(ops) }

// InsertEdge adds the dedge u→v and maintains the whole A(0..k) family
// with the split/merge algorithm of Figure 7 — the maintenance round over
// this one op. The family remains the unique minimum set of A(i)-indexes
// (Theorem 2).
func (x *Index) InsertEdge(u, v graph.NodeID, kind graph.EdgeKind) error {
	return x.ops().InsertEdge(u, v, kind)
}

// DeleteEdge removes the dedge u→v and maintains the family (the deletion
// variant of Figure 7).
func (x *Index) DeleteEdge(u, v graph.NodeID) error { return x.ops().DeleteEdge(u, v) }

// InsertNode adds a dnode with the given label, attached below parent
// unless that is InvalidNode, and returns its NodeID.
func (x *Index) InsertNode(label graph.LabelID, parent graph.NodeID, kind graph.EdgeKind) (graph.NodeID, error) {
	return x.ops().InsertNode(label, parent, kind)
}

// DeleteNode removes a dnode and its edges, each by a maintained round.
func (x *Index) DeleteNode(v graph.NodeID) error { return x.ops().DeleteNode(v) }

// AddSubgraph grafts a rooted subgraph with the 1-index recipe of Figure
// 6, adapted as §6 suggests, and returns the NodeIDs of its local nodes.
func (x *Index) AddSubgraph(sg *graph.Subgraph) ([]graph.NodeID, error) {
	return x.ops().AddSubgraph(sg)
}

// DeleteSubgraph removes the subtree rooted at root (tree edges only if
// skipIDRef is set) and returns it, ready to be re-added.
func (x *Index) DeleteSubgraph(root graph.NodeID, skipIDRef bool) (*graph.Subgraph, error) {
	return x.ops().DeleteSubgraph(root, skipIDRef)
}
