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
// x.Graph().Freeze()) and enables dirty tracking so that later
// PatchSnapshot calls can reuse the untouched pages.
func (x *Index) Freeze(data *graph.Frozen) *Snapshot { return x.PatchSnapshot(nil, data) }

// PatchSnapshot derives a new Snapshot from prev by re-copying only the
// inode slots dirtied since prev was built. Falls back to a full Freeze
// when prev is nil or dirty tracking was not active (e.g. after a codec
// switch). The caller supplies the frozen graph matching the family's
// current state.
func (x *Index) PatchSnapshot(prev *Snapshot, data *graph.Frozen) *Snapshot {
	if !x.trackDirty {
		prev = nil
	}
	h := snap.Header{Data: data, K: x.k, Root: NoINode, Size: x.numLive[x.k], Slots: len(x.nodes), Codec: x.codec}
	if r := x.g.Root(); r != graph.InvalidNode {
		h.Root = x.inodeOf[r]
	}
	s := snap.Patch(prev, h, x.dirtyIDs, x.fill)
	// The snapshot has consumed the dirty set.
	for _, i := range x.dirtyIDs {
		x.dirtySet[i] = false
	}
	x.dirtyIDs = x.dirtyIDs[:0]
	x.trackDirty = true
	return s
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
