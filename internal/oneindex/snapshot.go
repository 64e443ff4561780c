package oneindex

import (
	"structix/internal/graph"
	"structix/internal/snap"
)

// Snapshot is the immutable read view of a 1-index that Freeze and
// PatchSnapshot publish: the snapshot type both index families share (see
// internal/snap for the read API and the aliasing contract), unbounded —
// precise for paths of any length.
type Snapshot = snap.Snapshot

// Freeze builds a complete Snapshot of the index's current state (the
// caller supplies the matching frozen graph, normally x.Graph().Freeze())
// and enables dirty tracking so that later PatchSnapshot calls can reuse
// the untouched pages.
func (x *Index) Freeze(data *graph.Frozen) *Snapshot { return x.PatchSnapshot(nil, data) }

// PatchSnapshot derives a new Snapshot from prev by re-copying only the
// inodes dirtied since prev was built. Falls back to a full Freeze when
// prev is nil or dirty tracking was not active (e.g. the first call, after
// a manual mutation bypassing the index, or after a codec switch). The
// caller supplies the frozen graph matching the index's current state.
func (x *Index) PatchSnapshot(prev *Snapshot, data *graph.Frozen) *Snapshot {
	if !x.trackDirty {
		prev = nil
	}
	h := snap.Header{Data: data, K: snap.Unbounded, Root: x.RootINode(), Size: x.numLive, Slots: len(x.inodes), Codec: x.codec}
	s := snap.Patch(prev, h, x.dirtyIDs, x.fill)
	// The snapshot has consumed the dirty set.
	for _, i := range x.dirtyIDs {
		x.dirtySet[i] = false
	}
	x.dirtyIDs = x.dirtyIDs[:0]
	x.trackDirty = true
	return s
}

// fill is what a snapshot records of slot i: zero if the slot is dead.
func (x *Index) fill(i INodeID) (string, []INodeID, []graph.NodeID) {
	in := x.inodes[i]
	if in == nil {
		return "", nil, nil
	}
	return x.g.Labels().Name(in.label), x.ISucc(i), x.Extent(i)
}
