package oneindex

import (
	"fmt"

	"structix/internal/graph"
	"structix/internal/partition"
)

// AddSubgraph grafts a rooted subgraph into the data graph and maintains
// the index with the batched algorithm of Figure 6: build the 1-index of
// the subgraph alone, union it with the current index, attach the
// subgraph root by one maintenance round over all its incoming dedges,
// then insert every remaining cross edge with the ordinary edge-insertion
// algorithm.
// It returns the NodeIDs assigned to the subgraph's local nodes.
//
// The guarantees of Corollary 1 apply: the result is minimal, and minimum
// if the combined graph is acyclic.
func (x *Index) AddSubgraph(sg *graph.Subgraph) ([]graph.NodeID, error) {
	return x.addSubgraph(sg, true)
}

// AddSubgraphSplitOnly is AddSubgraph with every merge suppressed: cross
// edges are inserted with the propagate algorithm and the root round skips
// its merge phase. It reproduces the second alternative of the Figure 12
// experiment (subgraph addition via propagate). The index stays valid but
// can grow beyond minimal.
func (x *Index) AddSubgraphSplitOnly(sg *graph.Subgraph) ([]graph.NodeID, error) {
	return x.addSubgraph(sg, false)
}

func (x *Index) addSubgraph(sg *graph.Subgraph, merge bool) ([]graph.NodeID, error) {
	if sg.NumNodes() == 0 {
		return nil, nil
	}
	// Build the subgraph's own minimum 1-index on a standalone copy. The
	// subgraph root has no internal incoming edges, so it lands in a
	// singleton inode (all other nodes have a parent; labels alone cannot
	// merge a parentless node with a parented one).
	sub, localIDs, err := sg.BuildGraph(x.g.Labels())
	if err != nil {
		return nil, err
	}
	subPart := partition.CoarsestStable(sub, partition.ByLabel(sub))

	// Materialize the nodes and internal edges in the host graph, then
	// union the subgraph index into this index.
	ids, err := sg.InsertNodes(x.g)
	if err != nil {
		return nil, err
	}
	x.growScratch()
	blockTo := make(map[int32]INodeID)
	for li, real := range ids {
		b := subPart.Block(localIDs[li])
		in, ok := blockTo[b]
		if !ok {
			in = x.newINode(x.g.Label(real))
			blockTo[b] = in
		}
		x.attachDNode(real, in)
	}
	for _, e := range sg.Edges {
		x.addIEdgeCount(x.inodeOf[ids[e[0]]], x.inodeOf[ids[e[1]]], 1)
	}

	// Root attachment: one round over the root's incoming dedges. The root
	// sits alone in its inode, so the split phase has nothing to do; the
	// merge phase runs even when no edge enters the root, which may still
	// join another parentless inode.
	root := ids[0]
	var rootIn []graph.EdgeOp
	var laterIn []graph.CrossEdge
	for _, ce := range sg.CrossIn {
		if ce.Local != 0 {
			laterIn = append(laterIn, ce)
			continue
		}
		rootIn = append(rootIn, graph.InsertOp(ce.Outside, root, ce.Kind))
	}
	if err := x.applyRound(rootIn, root, merge); err != nil {
		return nil, fmt.Errorf("cross edge into subgraph root: %w", err)
	}

	// Every other cross edge goes through the ordinary insertion algorithm.
	insert := x.InsertEdge
	if !merge {
		insert = x.InsertEdgeSplitOnly
	}
	for _, ce := range laterIn {
		if err := insert(ce.Outside, ids[ce.Local], ce.Kind); err != nil {
			return nil, fmt.Errorf("cross edge into subgraph: %w", err)
		}
	}
	for _, ce := range sg.CrossOut {
		if err := insert(ids[ce.Local], ce.Outside, ce.Kind); err != nil {
			return nil, fmt.Errorf("cross edge out of subgraph: %w", err)
		}
	}
	return ids, nil
}

// DeleteSubgraphViaMarker removes the subtree rooted at root using the
// DELETE-label trick the paper describes in §5.2: a dedge from a special
// DELETE-labeled dnode to the subgraph root "singles out" the root's inode
// via the ordinary maintained insertion, after which the subgraph is
// detached and removed and the marker cleaned up. The end state is
// identical to DeleteSubgraph's (tested for equivalence); the marker route
// exists for fidelity to the published construction.
func (x *Index) DeleteSubgraphViaMarker(root graph.NodeID, skipIDRef bool) (*graph.Subgraph, error) {
	marker, err := x.InsertNode(x.g.Labels().Intern(graph.DeleteLabel), graph.InvalidNode, graph.Tree)
	if err != nil {
		return nil, err
	}
	if err := x.InsertEdge(marker, root, graph.Tree); err != nil {
		return nil, err
	}
	// The marked root now sits in an inode of its own (no other dnode has
	// a DELETE-labeled parent), which is what lets the paper "just delete
	// it from the index"; the shared detach-and-remove path below performs
	// that deletion.
	sg, err := x.DeleteSubgraph(root, skipIDRef)
	if err != nil {
		return nil, err
	}
	if err := x.DeleteNode(marker); err != nil {
		return nil, err
	}
	// The extraction recorded the marker edge as a cross edge; strip it so
	// the subgraph can be re-added without resurrecting the marker.
	clean := sg.CrossIn[:0]
	for _, ce := range sg.CrossIn {
		if ce.Outside != marker {
			clean = append(clean, ce)
		}
	}
	sg.CrossIn = clean
	return sg, nil
}

// DeleteSubgraph removes the subtree rooted at root (following tree edges
// only if skipIDRef is set, matching the extraction convention) and
// maintains the index. It returns the extracted Subgraph so the caller can
// re-add it later.
//
// The implementation first detaches the subgraph by running the maintained
// edge-deletion algorithm on every boundary-crossing edge — after which no
// remaining dnode has a parent or child inside the subgraph — and then
// removes the isolated island wholesale. Removing a whole island preserves
// both validity and minimality of the remaining index: surviving dnodes'
// parent sets are untouched, and every inode either keeps outside members
// (its id survives) or was island-only (it disappears with all references
// to it).
func (x *Index) DeleteSubgraph(root graph.NodeID, skipIDRef bool) (*graph.Subgraph, error) {
	sg := graph.Extract(x.g, root, skipIDRef)
	inSet := make(map[graph.NodeID]bool, len(sg.Members))
	for _, v := range sg.Members {
		inSet[v] = true
	}
	for _, ce := range sg.CrossIn {
		if err := x.DeleteEdge(ce.Outside, sg.Members[ce.Local]); err != nil {
			return nil, fmt.Errorf("detach cross-in edge: %w", err)
		}
	}
	for _, ce := range sg.CrossOut {
		if err := x.DeleteEdge(sg.Members[ce.Local], ce.Outside); err != nil {
			return nil, fmt.Errorf("detach cross-out edge: %w", err)
		}
	}
	// Remove the isolated island: decrement iedge counts for each internal
	// edge exactly once (RemoveNode deletes the edges, so later members no
	// longer carry them), drop extents, free emptied inodes.
	for _, w := range sg.Members {
		iw := x.inodeOf[w]
		x.g.EachSucc(w, func(s graph.NodeID, _ graph.EdgeKind) {
			x.addIEdgeCount(iw, x.inodeOf[s], -1)
		})
		x.g.EachPred(w, func(p graph.NodeID, _ graph.EdgeKind) {
			if !inSet[p] {
				panic("oneindex: island still attached")
			}
			x.addIEdgeCount(x.inodeOf[p], iw, -1)
		})
		x.g.RemoveNode(w)
		x.detachDNode(w)
		x.inodeOf[w] = NoINode
		x.pub.Mark(iw)
		if len(x.inodes[iw].extent) == 0 {
			x.freeINode(iw)
		}
	}
	return sg, nil
}
