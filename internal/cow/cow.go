// Package cow provides the paged copy-on-write array the epoch snapshots
// and the live data graph are built on: a spine of pointers to fixed-size
// pages. A published Array is immutable; the next epoch is derived through
// an Editor that copies the spine once and a page only on the first write
// into it, so every untouched page is shared between the two epochs and
// publication costs what the update touched, not what the array holds.
// The live graph keeps its Editor open between publications, reading and
// growing through it.
//
// Bytes copied per derivation ≈ 8·n/PageSize (the spine) + d·PageSize·r
// (the dirty pages) for n slots of r bytes with d slots written. The
// spine term falls and the page term rises with the page size; 64 keeps
// the sum within about 2× of its optimum from 10⁵ to 10⁷ slots at the
// dirty counts and record sizes the index snapshots see (tens of dirty
// pages, 40–56 B records; DESIGN.md §2.4 has the measured sweep).
package cow

const (
	pageBits = 6
	// PageSize is the number of slots per page.
	PageSize = 1 << pageBits
	pageMask = PageSize - 1
)

type page[T any] [PageSize]T

// Array is an immutable paged array of T. The zero value is the empty
// array. Copying an Array copies a slice header, not the pages.
type Array[T any] struct {
	spine []*page[T]
	n     int
}

// Len returns the number of slots.
func (a *Array[T]) Len() int { return a.n }

// At returns a pointer to slot i, which must be in [0, Len()). The slot
// is shared with every epoch that did not rewrite its page: read-only.
func (a *Array[T]) At(i int) *T { return &a.spine[i>>pageBits][i&pageMask] }

// Edit starts deriving a successor of a with n ≥ a.Len() slots; slots
// beyond a.Len() start as the zero T. The receiver is never modified.
func (a *Array[T]) Edit(n int) Editor[T] {
	if n < a.n {
		panic("cow: Edit cannot shrink an array")
	}
	e := Editor[T]{prev: a.spine, next: Array[T]{spine: append([]*page[T](nil), a.spine...), n: a.n}}
	e.Grow(n)
	return e
}

// Editor writes the slots in which a successor differs from its
// predecessor. A page is private to the successor once its pointer
// differs from the predecessor's, which is the whole ownership test.
type Editor[T any] struct {
	prev []*page[T]
	next Array[T]
}

// Len returns the successor's number of slots.
func (e *Editor[T]) Len() int { return e.next.n }

// At returns a read-only pointer to slot i of the successor, which may
// still be shared with the predecessor.
func (e *Editor[T]) At(i int) *T { return e.next.At(i) }

// Grow extends the successor to n ≥ Len() slots; the new slots start as
// the zero T.
func (e *Editor[T]) Grow(n int) {
	for len(e.next.spine)<<pageBits < n {
		e.next.spine = append(e.next.spine, new(page[T]))
	}
	e.next.n = n
}

// Slot returns a writable pointer to slot i of the successor, copying
// the slot's page first if it is still the predecessor's.
func (e *Editor[T]) Slot(i int) *T {
	pi := i >> pageBits
	p := e.next.spine[pi]
	if pi < len(e.prev) && p == e.prev[pi] {
		cp := new(page[T])
		*cp = *p
		p = cp
		e.next.spine[pi] = p
	}
	return &p[i&pageMask]
}

// Array returns the successor. The editor must not be used afterwards.
func (e *Editor[T]) Array() Array[T] { return e.next }
