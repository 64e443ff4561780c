// Package snap is the one immutable index snapshot both index families
// publish: the 1-index freezes its inodes into it, the A(k) family its
// level-k inodes. The families differ only in which partition they keep;
// what a reader walks is the same.
package snap

import (
	"fmt"

	"structix/internal/cow"
	"structix/internal/extent"
	"structix/internal/graph"
)

// ID identifies an inode slot of the index a snapshot was taken of.
type ID int32

const (
	// NoID marks the absence of an inode (a dead dnode, a rootless graph).
	NoID ID = -1
	// Unbounded is the K of a 1-index: precise for paths of any length.
	Unbounded = -1
)

// Snapshot is an immutable read view of an index, paired with a frozen
// copy of the data graph taken at the same instant. Once built, nothing
// in it ever changes: any number of goroutines may evaluate queries
// against it while the live index is being maintained. The snapshot holds
// exactly what evaluation needs — per inode slot the label name, sorted
// successor list and extent frozen into an extent.View (dense or
// compressed, per the index's snapshot codec), plus the root inode, the
// precision bound k and the frozen graph for validation and predicate
// checks.
//
// They live in two paged copy-on-write arrays (internal/cow), split by who
// reads them: the walk records (label and successors, 40 B — a walk step
// reads one) and the extents (read only for the slots a walk accepts).
// A patch copies the two page spines plus the 64-slot pages holding a
// dirtied slot, sharing every other page with its predecessor —
// publication costs what the commit dirtied, not what the index holds.
// Slots readers cannot see (dead, or not at level k of an A(k) family)
// hold zero records, so accessors need no liveness branch; a live inode is
// one with a non-empty extent (Index.Validate's invariant).
//
// Aliasing contract: the slice returned by ISucc and the storage behind
// ExtentView are owned by the snapshot and shared between all callers;
// they are read-only by construction (extent.View exposes no mutators).
// Extent returns a fresh copy the caller owns. Everything else about a
// Snapshot is safe to use from any goroutine without synchronization.
type Snapshot struct {
	h    Header
	walk cow.Array[walkRec]
	exts cow.Array[extent.View]

	denseBytes, encodedBytes int64 // see ExtentBytes

	changed []ID // see Changed: the dirty set the patch consumed
	partial bool // false for a full freeze

	pub *byte  // identity of the Publisher that published it
	gen uint64 // and its generation at the time
}

// Header is what the live index states about itself when it publishes.
type Header struct {
	Data  *graph.Frozen // the frozen graph matching the index's state
	K     int           // precision bound; Unbounded for a 1-index
	Root  ID            // inode of the data root; NoID if no root
	Size  int           // live inodes
	Slots int           // inode slot space, dead slots included
	Codec extent.Codec  // set by Publish to the publisher's codec
}

// walkRec is what an automaton step reads of one inode slot; the zero
// value belongs to a slot readers cannot see, and deadRec is it for ids
// outside the slot space.
type walkRec struct {
	name  string
	succs []ID
}

var deadRec walkRec

// Fill reports what readers see of slot i of the live index: its label
// name, sorted successor list and sorted extent, all zero for a slot they
// cannot see. The extent must be freshly allocated — the snapshot takes
// ownership, so the dense codec costs no extra copy.
type Fill func(i ID) (name string, succs []ID, ext []graph.NodeID)

// patch derives prev's successor by re-copying only the dirty slots —
// those whose label, extent, successor list or liveness changed since prev
// was built; every page without one is shared with prev. A nil prev builds
// a complete snapshot (and dirty is ignored).
func patch(prev *Snapshot, h Header, dirty []ID, fill Fill) *Snapshot {
	s := &Snapshot{h: h}
	if prev == nil {
		prev = &Snapshot{}
	} else {
		s.denseBytes, s.encodedBytes = prev.denseBytes, prev.encodedBytes
		s.changed, s.partial = append([]ID(nil), dirty...), true
	}
	w, e := prev.walk.Edit(h.Slots), prev.exts.Edit(h.Slots)
	if s.partial {
		for _, i := range dirty {
			s.set(w.Slot(int(i)), e.Slot(int(i)), i, fill)
		}
	} else {
		for i := 0; i < h.Slots; i++ {
			s.set(w.Slot(i), e.Slot(i), ID(i), fill)
		}
	}
	s.walk, s.exts = w.Array(), e.Array()
	return s
}

// set rewrites slot i's records from the live index and moves the extent
// byte totals by the difference.
func (s *Snapshot) set(w *walkRec, v *extent.View, i ID, fill Fill) {
	s.countExtent(*v, -1)
	var ext []graph.NodeID
	w.name, w.succs, ext = fill(i)
	*v = extent.FromSorted(ext, s.h.Codec)
	s.countExtent(*v, +1)
}

func (s *Snapshot) countExtent(v extent.View, sign int64) {
	if v.IsCompressed() {
		s.encodedBytes += sign * int64(v.Bytes())
	} else {
		s.denseBytes += sign * int64(v.Bytes())
	}
}

// Data returns the frozen data graph the snapshot was paired with.
func (s *Snapshot) Data() *graph.Frozen { return s.h.Data }

// K returns the length up to which anchored, descendant-free paths are
// answered precisely from the snapshot alone: the locality parameter of an
// A(k) family, Unbounded for a 1-index.
func (s *Snapshot) K() int { return s.h.K }

// Bounded reports whether longer paths need validation against the data
// graph (an A(k) snapshot) or none ever does (a 1-index snapshot).
func (s *Snapshot) Bounded() bool { return s.h.K != Unbounded }

// Changed returns the inode slots whose records differ from the snapshot
// this one was patched from, and ok=true when that delta is known. A full
// Freeze has no predecessor, so it reports ok=false and callers must
// assume every slot changed. The slice is owned by the snapshot:
// read-only.
func (s *Snapshot) Changed() (slots []ID, ok bool) { return s.changed, s.partial }

// Slots returns the size of the inode slot space (dense ID range, unseen
// slots included), the bound evaluation scratch state is sized to.
func (s *Snapshot) Slots() int { return s.walk.Len() }

// RootINode returns the inode containing the data root (NoID if the graph
// had no root at freeze time).
func (s *Snapshot) RootINode() ID { return s.h.Root }

// Size returns the number of live inodes at freeze time.
func (s *Snapshot) Size() int { return s.h.Size }

// rec returns I's walk record, deadRec for ids outside the slot space.
func (s *Snapshot) rec(I ID) *walkRec {
	if uint(I) >= uint(s.walk.Len()) {
		return &deadRec
	}
	return s.walk.At(int(I))
}

// Live reports whether inode I existed at freeze time.
func (s *Snapshot) Live(I ID) bool { return s.ExtentView(I).Len() > 0 }

// LabelName returns I's label string ("" for a slot readers cannot see).
func (s *Snapshot) LabelName(I ID) string { return s.rec(I).name }

// ISucc returns I's sorted index successors (nil for a slot readers
// cannot see). The slice is shared with the snapshot: read-only.
func (s *Snapshot) ISucc(I ID) []ID { return s.rec(I).succs }

// Codec returns the extent codec the snapshot was frozen under. A
// Compressed snapshot may still hold dense views for extents the block
// encoding could not shrink (see extent.FromSorted).
func (s *Snapshot) Codec() extent.Codec { return s.h.Codec }

// ExtentView returns I's frozen extent as a read-only extent.View — the
// aliasing-safe accessor the query kernels union and intersect directly,
// in whatever representation the snapshot froze it into. The zero View is
// returned for slots readers cannot see.
func (s *Snapshot) ExtentView(I ID) extent.View {
	if uint(I) >= uint(s.exts.Len()) {
		return extent.View{}
	}
	return *s.exts.At(int(I))
}

// Extent returns I's sorted extent as a freshly allocated slice the
// caller owns — it never aliases snapshot storage. Result assembly should
// prefer ExtentView(I).AppendTo, which fills a warm buffer without a copy.
func (s *Snapshot) Extent(I ID) []graph.NodeID { return s.ExtentView(I).AppendTo(nil) }

// ExtentSize returns |extent(I)| at freeze time (O(1) under every codec:
// compressed views carry their cardinality in the header).
func (s *Snapshot) ExtentSize(I ID) int { return s.ExtentView(I).Len() }

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
	family := "1-index"
	if s.Bounded() {
		family = fmt.Sprintf("A(%d)-index", s.h.K)
	}
	return fmt.Sprintf("%s snapshot{%d inodes over %d dnodes}", family, s.h.Size, s.h.Data.NumNodes())
}
