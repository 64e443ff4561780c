package oneindex

import (
	"slices"

	"structix/internal/graph"
	"structix/internal/maint"
)

// ops is the op driver over this index's round kernel.
func (x *Index) ops() maint.Driver {
	return maint.Driver{G: x.g, K: (*kernel)(x), R: &x.round}
}

// SplitOnly returns the op driver of the *propagate* algorithm of Kaushik
// et al. [8] over x, sharing its round state: every round skips the merge
// phase, so the index stays valid but can grow beyond minimal. Its
// AddSubgraph is the second alternative of the Figure 12 experiment.
func SplitOnly(x *Index) maint.Driver {
	return maint.Driver{G: x.g, K: splitOnly{(*kernel)(x)}, R: &x.round}
}

// ApplyBatch applies a sequence of edge updates atomically as one
// maintenance round (maint.Driver.ApplyBatch). The result is a valid
// minimal 1-index, and on acyclic graphs the unique minimum — identical to
// applying the ops one at a time: merging inodes with equal labels and
// index-parent sets preserves stability (§5.3), so the deferred merge pass
// commutes with the rest of the batch.
func (x *Index) ApplyBatch(ops []graph.EdgeOp) error { return x.ops().ApplyBatch(ops) }

// InsertEdge adds the dedge u→v to the data graph and maintains the index
// with the split/merge algorithm of Figure 3 — the maintenance round over
// this one op. If the index was minimal before the call it is minimal
// after it (Lemma 3), and minimum if the graph is acyclic (Theorem 1).
func (x *Index) InsertEdge(u, v graph.NodeID, kind graph.EdgeKind) error {
	return x.ops().InsertEdge(u, v, kind)
}

// DeleteEdge removes the dedge u→v and maintains the index with the
// deletion variant of Figure 3.
func (x *Index) DeleteEdge(u, v graph.NodeID) error { return x.ops().DeleteEdge(u, v) }

// InsertNode adds a dnode with the given label, attached below parent
// unless that is InvalidNode — the node insertion §1 builds on edge
// insertion — and returns its NodeID.
func (x *Index) InsertNode(label graph.LabelID, parent graph.NodeID, kind graph.EdgeKind) (graph.NodeID, error) {
	return x.ops().InsertNode(label, parent, kind)
}

// DeleteNode removes a dnode and its edges, each by a maintained round.
func (x *Index) DeleteNode(v graph.NodeID) error { return x.ops().DeleteNode(v) }

// AddSubgraph grafts a rooted subgraph with the batched algorithm of
// Figure 6 and returns the NodeIDs of its local nodes. Corollary 1
// applies: the result is minimal, and minimum if the graph is acyclic.
func (x *Index) AddSubgraph(sg *graph.Subgraph) ([]graph.NodeID, error) {
	return x.ops().AddSubgraph(sg)
}

// DeleteSubgraph removes the subtree rooted at root (tree edges only if
// skipIDRef is set) and returns it, ready to be re-added.
func (x *Index) DeleteSubgraph(root graph.NodeID, skipIDRef bool) (*graph.Subgraph, error) {
	return x.ops().DeleteSubgraph(root, skipIDRef)
}

// DeleteSubgraphViaMarker removes the subtree rooted at root using the
// DELETE-label trick the paper describes in §5.2: a dedge from a special
// DELETE-labeled dnode to the subgraph root "singles out" the root's inode
// via the ordinary maintained insertion, after which the subgraph is
// detached and removed and the marker cleaned up. The end state is
// identical to DeleteSubgraph's (tested for equivalence); the marker route
// exists for fidelity to the published construction.
func (x *Index) DeleteSubgraphViaMarker(root graph.NodeID, skipIDRef bool) (*graph.Subgraph, error) {
	d := x.ops()
	if err := d.CheckDelete(root, skipIDRef); err != nil {
		return nil, err // before the marker exists
	}
	marker, err := d.InsertNode(x.g.Labels().Intern(graph.DeleteLabel), graph.InvalidNode, graph.Tree)
	if err != nil {
		return nil, err
	}
	if err := d.InsertEdge(marker, root, graph.Tree); err != nil {
		return nil, err
	}
	// The marked root now sits in an inode of its own (no other dnode has
	// a DELETE-labeled parent), which is what lets the paper "just delete
	// it from the index"; the driver's detach-and-remove performs that
	// deletion.
	sg, err := d.DeleteSubgraph(root, skipIDRef)
	if err != nil {
		return nil, err
	}
	if err := d.DeleteNode(marker); err != nil {
		return nil, err
	}
	// The extraction recorded the marker edge as a cross edge; strip it so
	// the subgraph can be re-added without resurrecting the marker.
	sg.CrossIn = slices.DeleteFunc(sg.CrossIn, func(ce graph.CrossEdge) bool { return ce.Outside == marker })
	return sg, nil
}
