package oneindex

import (
	"structix/internal/extent"
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
	return x.pub.Publish(prev, h, x.filler(!x.pub.Patches(prev) && x.pub.Codec() == extent.Dense))
}

// filler reports what a snapshot records of slot i: zero if the slot is
// dead. A slab fill (a full dense freeze) cuts successors and extents from
// one slab each; else each slot gets its own copies, so no slab pins
// slots that later patches replace, nor a whole extent slab for a
// compressed snapshot's dense fallback views.
func (x *Index) filler(slab bool) snap.Fill {
	var succs []INodeID
	var exts []graph.NodeID
	if slab { // the extents partition the live dnodes
		succs, exts = make([]INodeID, 0, x.NumIEdges()), make([]graph.NodeID, 0, x.g.NumNodes())
	}
	return func(i INodeID) (string, []INodeID, []graph.NodeID) {
		in := x.inodes[i]
		if in == nil {
			return "", nil, nil
		}
		if !slab {
			succs, exts = nil, nil
		}
		ns, ne := len(succs), len(exts)
		succs, exts = append(succs, in.succ.IDs...), x.appendExtent(exts, i)
		return x.g.Labels().Name(in.label), succs[ns:len(succs):len(succs)], exts[ne:len(exts):len(exts)]
	}
}
