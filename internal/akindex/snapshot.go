package akindex

import (
	"structix/internal/graph"
	"structix/internal/snap"
)

// Snapshot is the immutable read view of the level-k index of an A(k)
// family that Freeze and PatchSnapshot publish: the snapshot type both
// index families share (internal/snap has the read API and the aliasing
// contract), bounded by k. Queries run against level k only, so that is
// all it carries: intra-iedges as successors, other levels' slots dead.
type Snapshot = snap.Snapshot

// Freeze builds a complete Snapshot of the family's current level-k state
// (the caller supplies the matching frozen graph, normally
// x.Graph().Freeze()).
func (x *Index) Freeze(data *graph.Frozen) *Snapshot { return x.PatchSnapshot(nil, data) }

// PatchSnapshot publishes the family's current level-k state, re-copying
// only the inode slots dirtied since prev when prev is the family's latest
// publication (see snap.Publisher) and freezing every slot otherwise. The
// caller supplies the frozen graph matching the family's current state.
func (x *Index) PatchSnapshot(prev *Snapshot, data *graph.Frozen) *Snapshot {
	h := snap.Header{Data: data, K: x.k, Root: NoINode, Size: x.numLive[x.k], Slots: len(x.nodes)}
	if r := x.g.Root(); r != graph.InvalidNode {
		h.Root = x.inodeOf[r]
	}
	return x.pub.Publish(prev, h, x.fill)
}

// fill is what a snapshot records of slot i: zero if the slot is dead or
// holds a non-level-k inode, since only level k is visible to readers.
func (x *Index) fill(i INodeID) (string, []INodeID, []graph.NodeID) {
	n := x.nodes[i]
	if n == nil || int(n.level) != x.k {
		return "", nil, nil
	}
	return x.g.Labels().Name(n.label), x.IntraSucc(i), x.Extent(i)
}
