package oneindex

import (
	"fmt"

	"structix/internal/graph"
)

// InsertNode adds a new dnode with the given label and, when parent is not
// InvalidNode, attaches it below parent with an edge of the given kind —
// the node-insertion operation §1 describes as built on edge insertion.
// The new node starts in a fresh singleton inode; the maintenance round
// then coalesces it with an existing inode when one has the same label and
// index parents. Returns the new NodeID.
func (x *Index) InsertNode(label graph.LabelID, parent graph.NodeID, kind graph.EdgeKind) (graph.NodeID, error) {
	if parent != graph.InvalidNode && !x.g.Alive(parent) {
		return graph.InvalidNode, fmt.Errorf("oneindex: parent %d is not a live node", parent)
	}
	v := x.g.AddNodeL(label)
	x.growScratch()
	in := x.newINode(label)
	x.attachDNode(v, in)
	if parent == graph.InvalidNode {
		// Detached node: no edge op disturbs it, but it may still merge
		// with another parentless inode.
		return v, x.applyRound(nil, v, true)
	}
	// The edge-insertion round does the rest: the split phase is a no-op
	// on a singleton and the merge phase finds the sibling, if any.
	if err := x.InsertEdge(parent, v, kind); err != nil {
		return graph.InvalidNode, err
	}
	return v, nil
}

// DeleteNode removes a dnode: every incident edge is deleted with the
// maintained edge-deletion algorithm (so the index stays minimal
// throughout), after which the isolated node is dropped from its inode.
func (x *Index) DeleteNode(v graph.NodeID) error {
	if !x.g.Alive(v) {
		return fmt.Errorf("oneindex: node %d is not live", v)
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
	// v is now isolated; its inode holds only parentless, childless... at
	// least parentless nodes (edge deletions split it out as its parent
	// set emptied). Removing it cannot change any other inode's
	// index-parent set, so minimality is preserved.
	iv := x.inodeOf[v]
	x.detachDNode(v)
	x.inodeOf[v] = NoINode
	x.pub.Mark(iv)
	x.g.RemoveNode(v)
	if len(x.inodes[iv].extent) == 0 {
		x.freeINode(iv)
	}
	return nil
}
