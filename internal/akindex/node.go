package akindex

import (
	"fmt"

	"structix/internal/graph"
)

// InsertNode adds a new dnode with the given label and, when parent is not
// InvalidNode, attaches it below parent. The new node joins its A(0) label
// class (created if the label is new) and starts as a singleton chain at
// levels 1..k; a maintenance round then attaches and merges it.
// Returns the new NodeID.
func (x *Index) InsertNode(label graph.LabelID, parent graph.NodeID, kind graph.EdgeKind) (graph.NodeID, error) {
	if parent != graph.InvalidNode && !x.g.Alive(parent) {
		return graph.InvalidNode, fmt.Errorf("akindex: parent %d is not a live node", parent)
	}
	v := x.g.AddNodeL(label)
	x.growScratch()
	// Find or create the A(0) label class.
	var class0 INodeID = NoINode
	x.EachINodeAt(0, func(i INodeID) {
		if x.nodes[i].label == label {
			class0 = i
		}
	})
	if class0 == NoINode {
		class0 = x.newANode(0, label, NoINode)
	}
	cur := class0
	for l := 1; l <= x.k; l++ {
		cur = x.newANode(int32(l), label, cur)
	}
	x.extentAdd(cur, v)
	x.inodeOf[v] = cur
	if parent == graph.InvalidNode {
		// Detached node: no edge op disturbs it, but its chain may still
		// merge with another parentless one at every level 1..k.
		return v, x.applyRound(nil, v)
	}
	// The edge insertion sees a parentless v (largest stable level −1), so
	// its split phase is a no-op on the singleton chain and its merge
	// phase covers the full range 1..k.
	if err := x.InsertEdge(parent, v, kind); err != nil {
		return graph.InvalidNode, err
	}
	return v, nil
}

// DeleteNode removes a dnode: incident edges go through the maintained
// edge-deletion algorithm, then the isolated node's refinement-tree chain
// tail is dropped.
func (x *Index) DeleteNode(v graph.NodeID) error {
	if !x.g.Alive(v) {
		return fmt.Errorf("akindex: node %d is not live", v)
	}
	for _, s := range x.g.Succ(v) {
		if err := x.DeleteEdge(v, s); err != nil {
			return err
		}
	}
	for _, p := range x.g.Pred(v) {
		if err := x.DeleteEdge(p, v); err != nil {
			return err
		}
	}
	iv := x.inodeOf[v]
	x.g.RemoveNode(v)
	x.extentRemove(iv, v)
	x.inodeOf[v] = NoINode
	x.pub.Mark(iv)
	for id := iv; id != NoINode; {
		n := x.nodes[id]
		if len(n.extent) > 0 || len(n.child) > 0 {
			break
		}
		parent := n.parent
		x.freeANode(id)
		id = parent
	}
	return nil
}
