package akindex

import (
	"fmt"

	"structix/internal/graph"
	"structix/internal/partition"
)

// AddSubgraph grafts a rooted subgraph into the data graph and maintains
// the A(0..k) family, following the 1-index recipe of Figure 6 adapted as
// §6 suggests: build the subgraph's own minimum family, union it in (fusing
// the level-0 label classes and cascading the merges that fusion enables),
// attach the subgraph root by one maintenance round over all its incoming
// edges, and push every remaining cross edge through the ordinary
// insertion algorithm. Returns the NodeIDs assigned to the subgraph's
// local nodes.
func (x *Index) AddSubgraph(sg *graph.Subgraph) ([]graph.NodeID, error) {
	if sg.NumNodes() == 0 {
		return nil, nil
	}
	sub, localIDs, err := sg.BuildGraph(x.g.Labels())
	if err != nil {
		return nil, err
	}
	levels := partition.KBisimLevels(sub, x.k)

	ids, err := sg.InsertNodes(x.g)
	if err != nil {
		return nil, err
	}
	x.growScratch()

	// Existing level-0 inodes by label, to fuse the subgraph's A(0) into.
	existing0 := make(map[graph.LabelID]INodeID)
	x.EachINodeAt(0, func(i INodeID) { existing0[x.nodes[i].label] = i })

	// Mirror the subgraph's refinement tree with fresh anodes.
	blockTo := make([]map[int32]INodeID, x.k+1)
	for l := 0; l <= x.k; l++ {
		blockTo[l] = make(map[int32]INodeID)
	}
	var fresh0 []INodeID
	for li, real := range ids {
		var parent INodeID = NoINode
		for l := 0; l <= x.k; l++ {
			b := levels[l].Block(localIDs[li])
			id, ok := blockTo[l][b]
			if !ok {
				id = x.newANode(int32(l), x.g.Label(real), parent)
				blockTo[l][b] = id
				if l == 0 {
					fresh0 = append(fresh0, id)
				}
			}
			parent = id
		}
		x.extentAdd(parent, real)
		x.inodeOf[real] = parent
	}
	for _, e := range sg.Edges {
		x.addEdgeCounts(ids[e[0]], ids[e[1]], 1)
	}

	// Fuse A(0): every fresh label class joins the pre-existing class of
	// the same label, and the fusions cascade upward through the family.
	// The cascade regroups the children of every merged inode, so the
	// still-parentless root's chain already merges with any equal
	// parentless chain here, with or without incoming edges.
	x.resetCascade()
	for _, f := range fresh0 {
		if x.nodes[f] == nil {
			continue // already absorbed by an earlier cascade
		}
		host, ok := existing0[x.nodes[f].label]
		if !ok {
			continue // genuinely new label
		}
		m := x.mergeANodes(host, f)
		x.cascadePush(0, m)
	}
	x.drainCascade()

	// Root attachment: one round over the root's incoming edges.
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
	if err := x.applyRound(rootIn, graph.InvalidNode); err != nil {
		return nil, fmt.Errorf("cross edge into subgraph root: %w", err)
	}
	for _, ce := range laterIn {
		if err := x.InsertEdge(ce.Outside, ids[ce.Local], ce.Kind); err != nil {
			return nil, fmt.Errorf("cross edge into subgraph: %w", err)
		}
	}
	for _, ce := range sg.CrossOut {
		if err := x.InsertEdge(ids[ce.Local], ce.Outside, ce.Kind); err != nil {
			return nil, fmt.Errorf("cross edge out of subgraph: %w", err)
		}
	}
	return ids, nil
}

// DeleteSubgraph removes the subtree rooted at root (tree edges only when
// skipIDRef is set) and maintains the family: boundary-crossing edges are
// deleted with the maintained algorithm, then the isolated island is
// removed wholesale, which preserves both validity and minimality for the
// same reasons as in the 1-index case. It returns the extracted Subgraph.
func (x *Index) DeleteSubgraph(root graph.NodeID, skipIDRef bool) (*graph.Subgraph, error) {
	sg := graph.Extract(x.g, root, skipIDRef)
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
	for _, w := range sg.Members {
		// Each internal edge is un-counted exactly once: RemoveNode deletes
		// w's edges, so later members no longer carry them.
		x.g.EachSucc(w, func(s graph.NodeID, _ graph.EdgeKind) {
			x.addEdgeCounts(w, s, -1)
		})
		x.g.EachPred(w, func(p graph.NodeID, _ graph.EdgeKind) {
			x.addEdgeCounts(p, w, -1)
		})
		iw := x.inodeOf[w]
		x.g.RemoveNode(w)
		x.extentRemove(iw, w)
		x.inodeOf[w] = NoINode
		x.pub.Mark(iw)
		// Free the now-empty tail of w's refinement-tree path.
		for id := iw; id != NoINode; {
			n := x.nodes[id]
			if len(n.extent) > 0 || len(n.child) > 0 {
				break
			}
			parent := n.parent
			x.freeANode(id)
			id = parent
		}
	}
	return sg, nil
}
