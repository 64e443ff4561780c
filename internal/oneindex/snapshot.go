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
// caller supplies the matching frozen graph, normally x.Graph().Freeze()).
func (x *Index) Freeze(data *graph.Frozen) *Snapshot { return x.PatchSnapshot(nil, data) }

// PatchSnapshot publishes the index's current state, re-copying only the
// inodes dirtied since prev when prev is the index's latest publication
// (see snap.Publisher) and freezing every inode otherwise. The caller
// supplies the frozen graph matching the index's current state.
func (x *Index) PatchSnapshot(prev *Snapshot, data *graph.Frozen) *Snapshot {
	h := snap.Header{Data: data, K: snap.Unbounded, Root: x.RootINode(), Size: x.numLive, Slots: len(x.inodes)}
	return x.pub.Publish(prev, h, x.fill)
}

// fill is what a snapshot records of slot i: zero if the slot is dead.
func (x *Index) fill(i INodeID) (string, []INodeID, []graph.NodeID) {
	in := x.inodes[i]
	if in == nil {
		return "", nil, nil
	}
	return x.g.Labels().Name(in.label), x.ISucc(i), x.Extent(i)
}
