package oneindex

import (
	"fmt"

	"structix/internal/cow"
	"structix/internal/extent"
	"structix/internal/graph"
)

// Snapshot is an immutable read view of a 1-index, paired with a frozen
// copy of the data graph taken at the same instant. Once built, nothing
// in it ever changes: any number of goroutines may evaluate queries
// against it while the live index is being maintained. The snapshot holds
// exactly what evaluation needs — per inode slot the label name,
// sorted successor list and extent frozen into an extent.View (dense or
// compressed, per the index's snapshot codec), plus the root inode and the
// frozen graph for predicate checks.
//
// They live in two paged copy-on-write arrays (internal/cow), split by who
// reads them: the walk records (label and successors, 40 B — a walk step
// reads one) and the extents (read only for the slots a walk accepts).
// PatchSnapshot copies the two page spines plus the 64-slot pages holding
// a dirtied inode, sharing every other page with its predecessor —
// publication costs what the commit dirtied, not what the index holds.
// Dead slots hold zero records, so accessors need no liveness branch; a
// live inode is one with a non-empty extent (Index.Validate's invariant).
//
// Aliasing contract: the slice returned by ISucc and the storage behind
// ExtentView are owned by the snapshot and shared between all callers;
// they are read-only by construction (extent.View exposes no mutators).
// Extent returns a fresh copy the caller owns. Everything else about a
// Snapshot is safe to use from any goroutine without synchronization.
type Snapshot struct {
	data  *graph.Frozen
	root  INodeID // inode of the data root; NoINode if no root
	walk  cow.Array[walkRec]
	exts  cow.Array[extent.View]
	size  int
	codec extent.Codec

	// Resident extent storage by representation, kept current per
	// rewritten slot so ExtentBytes is O(1).
	denseBytes, encodedBytes int64

	// changed is the set of inode slots whose records differ from the
	// predecessor snapshot (the dirty set PatchSnapshot consumed); partial
	// is false for full freezes, where the delta is unknown.
	changed []INodeID
	partial bool
}

// walkRec is what an automaton step reads of one inode slot; the zero
// value belongs to a slot readers cannot see.
type walkRec struct {
	name  string
	succs []INodeID
}

// deadRec is what accessors read for ids outside the slot space.
var deadRec walkRec

// Freeze builds a complete Snapshot of the index's current state (the
// caller supplies the matching frozen graph, normally x.Graph().Freeze())
// and enables dirty tracking so that later PatchSnapshot calls can reuse
// the untouched pages.
func (x *Index) Freeze(data *graph.Frozen) *Snapshot {
	s := &Snapshot{data: data, codec: x.codec}
	w, e := s.walk.Edit(len(x.inodes)), s.exts.Edit(len(x.inodes))
	for i := range x.inodes {
		s.set(x, w.Slot(i), e.Slot(i), INodeID(i))
	}
	return s.finish(x, w, e)
}

// PatchSnapshot derives a new Snapshot from prev by re-copying only the
// inodes dirtied since prev was built; every page without one is shared
// with prev. Falls back to a full Freeze when prev is nil or dirty
// tracking was not active (e.g. the first call, after a manual mutation
// bypassing the index, or after a codec switch). The caller supplies the
// frozen graph matching the index's current state.
func (x *Index) PatchSnapshot(prev *Snapshot, data *graph.Frozen) *Snapshot {
	if prev == nil || !x.trackDirty {
		return x.Freeze(data)
	}
	s := &Snapshot{
		data:         data,
		codec:        x.codec,
		denseBytes:   prev.denseBytes,
		encodedBytes: prev.encodedBytes,
		changed:      append([]INodeID(nil), x.dirtyIDs...),
		partial:      true,
	}
	w, e := prev.walk.Edit(len(x.inodes)), prev.exts.Edit(len(x.inodes))
	for _, i := range x.dirtyIDs {
		s.set(x, w.Slot(int(i)), e.Slot(int(i)), i)
	}
	return s.finish(x, w, e)
}

// set rewrites slot i's records from the live index (zero if the slot is
// dead) and moves the extent byte totals by the difference.
func (s *Snapshot) set(x *Index, w *walkRec, v *extent.View, i INodeID) {
	s.countExtent(*v, -1)
	*w, *v = walkRec{}, extent.View{}
	if in := x.inodes[i]; in != nil {
		w.name = x.g.Labels().Name(in.label)
		w.succs = x.ISucc(i)
		// Index.Extent returns a fresh sorted slice, so FromSorted may take
		// ownership: the dense codec costs no extra copy.
		*v = extent.FromSorted(x.Extent(i), s.codec)
	}
	s.countExtent(*v, +1)
}

func (s *Snapshot) countExtent(v extent.View, sign int64) {
	if v.IsCompressed() {
		s.encodedBytes += sign * int64(v.Bytes())
	} else {
		s.denseBytes += sign * int64(v.Bytes())
	}
}

func (s *Snapshot) finish(x *Index, w cow.Editor[walkRec], e cow.Editor[extent.View]) *Snapshot {
	s.walk, s.exts = w.Array(), e.Array()
	s.size = x.numLive
	s.root = NoINode
	if r := x.g.Root(); r != graph.InvalidNode {
		s.root = x.inodeOf[r]
	}
	x.trackDirty = true
	x.resetDirty()
	return s
}

// resetDirty clears the dirty set after a snapshot has consumed it.
func (x *Index) resetDirty() {
	for _, i := range x.dirtyIDs {
		x.dirtySet[i] = false
	}
	x.dirtyIDs = x.dirtyIDs[:0]
}

// Data returns the frozen data graph the snapshot was paired with.
func (s *Snapshot) Data() *graph.Frozen { return s.data }

// Changed returns the inode slots whose records differ from the snapshot
// this one was patched from, and ok=true when that delta is known. A full
// Freeze has no predecessor, so it reports ok=false and callers must
// assume every slot changed. The slice is owned by the snapshot:
// read-only.
func (s *Snapshot) Changed() (slots []INodeID, ok bool) {
	return s.changed, s.partial
}

// Slots returns the size of the inode slot space (dense INodeID range;
// dead slots included), the bound evaluation scratch state is sized to.
func (s *Snapshot) Slots() int { return s.walk.Len() }

// NumNodes returns the number of live dnodes in the frozen data graph.
func (s *Snapshot) NumNodes() int { return s.data.NumNodes() }

// RootINode returns the inode containing the data root (NoINode if the
// graph had no root at freeze time).
func (s *Snapshot) RootINode() INodeID { return s.root }

// Size returns the number of live inodes at freeze time.
func (s *Snapshot) Size() int { return s.size }

// rec returns I's walk record; the dead record for ids outside the slot
// space.
func (s *Snapshot) rec(I INodeID) *walkRec {
	if uint(I) >= uint(s.walk.Len()) {
		return &deadRec
	}
	return s.walk.At(int(I))
}

// Live reports whether inode I existed at freeze time.
func (s *Snapshot) Live(I INodeID) bool { return s.ExtentView(I).Len() > 0 }

// LabelName returns I's label string ("" for a dead slot).
func (s *Snapshot) LabelName(I INodeID) string { return s.rec(I).name }

// EachISucc calls fn for every index successor of I, in increasing order.
func (s *Snapshot) EachISucc(I INodeID, fn func(J INodeID)) {
	for _, j := range s.rec(I).succs {
		fn(j)
	}
}

// ISucc returns I's sorted index successors (nil for a dead slot). The
// slice is shared with the snapshot: read-only.
func (s *Snapshot) ISucc(I INodeID) []INodeID { return s.rec(I).succs }

// Codec returns the extent codec the snapshot was frozen under. A
// Compressed snapshot may still hold dense views for extents the block
// encoding could not shrink (see extent.FromSorted).
func (s *Snapshot) Codec() extent.Codec { return s.codec }

// ExtentView returns I's frozen extent as a read-only extent.View — the
// aliasing-safe accessor the query kernels union and intersect directly,
// in whatever representation the snapshot froze it into. The zero View is
// returned for dead slots.
func (s *Snapshot) ExtentView(I INodeID) extent.View {
	if uint(I) >= uint(s.exts.Len()) {
		return extent.View{}
	}
	return *s.exts.At(int(I))
}

// Extent returns I's sorted extent as a freshly allocated slice the
// caller owns — it never aliases snapshot storage. Result assembly should
// prefer AppendExtent or ExtentView, which do not copy per call.
func (s *Snapshot) Extent(I INodeID) []graph.NodeID {
	return s.ExtentView(I).AppendTo(nil)
}

// EachExtent calls fn for every dnode in I's extent, in ascending order.
func (s *Snapshot) EachExtent(I INodeID, fn func(v graph.NodeID)) {
	s.ExtentView(I).Each(fn)
}

// AppendExtent appends I's extent to dst in ascending order and returns
// it — the extent-union primitive of the snapshot evaluators and the
// sharded scatter-gather merge: with a warm dst the whole union allocates
// nothing, compressed views decoding streaming into dst.
func (s *Snapshot) AppendExtent(dst []graph.NodeID, I INodeID) []graph.NodeID {
	return s.ExtentView(I).AppendTo(dst)
}

// ExtentSize returns |extent(I)| at freeze time (O(1) under every codec:
// compressed views carry their cardinality in the header).
func (s *Snapshot) ExtentSize(I INodeID) int { return s.ExtentView(I).Len() }

// ExtentBytes returns the resident extent storage of the snapshot, split
// by representation: denseBytes counts slots holding dense slices
// (including dense fallbacks under the Compressed codec), encodedBytes
// counts compressed block encodings. Shared (patched) slots count at
// their stored size, so the sum is the true footprint of a single
// snapshot generation. O(1): the totals are carried from snapshot to
// snapshot and adjusted per rewritten slot.
func (s *Snapshot) ExtentBytes() (denseBytes, encodedBytes int64) {
	return s.denseBytes, s.encodedBytes
}

func (s *Snapshot) String() string {
	return fmt.Sprintf("1-index snapshot{%d inodes over %d dnodes}", s.size, s.data.NumNodes())
}
