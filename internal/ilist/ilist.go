// Package ilist provides the flat slices the index cores share: small
// sorted (id, count) slice pairs used as the replacement for their
// map[INodeID]int32 iedge counters, and Resize, the one growth rule for
// their slot-indexed scratch arrays.
//
// An inode's iedge fan-out is small in practice (bounded by the number of
// distinct labels reachable in one step), so a sorted slice with
// binary-search upsert beats a hash map on every axis that matters here:
// two cache lines instead of a bucket walk, zero per-entry allocation, and
// iteration in sorted order for free — which is what every accessor and
// signature builder downstream wants anyway.
//
// The package is generic over the id type because oneindex.INodeID and
// akindex.INodeID are distinct ~int32 types.
package ilist

import "slices"

// Resize returns s with length n, keeping its first min(len(s), n)
// elements. Growing past the capacity reallocates with headroom
// (slices.Grow), so an array tracking an arena that grows one slot at a
// time reallocates O(log n) times, not once per slot. Elements past the
// old length are zero after a reallocation and hold whatever an earlier,
// longer use left otherwise, so the arrays sized this way are
// epoch-stamped, or guarded by an array that is.
func Resize[S ~[]E, E any](s S, n int) S {
	if n > cap(s) {
		s = slices.Grow(s, n-len(s))
	}
	return s[:n]
}

// Counts is a sorted multiset of ids with int32 multiplicities. The zero
// value is an empty list ready for use. IDs and N are parallel slices and
// exported so hot paths can range over them directly; they must only be
// mutated through Add (or Reset), which keeps them sorted and free of zero
// counts.
type Counts[ID ~int32] struct {
	IDs []ID
	N   []int32
}

// search returns the position of id in l.IDs, or the insertion point if
// absent. Plain binary search, inlined small.
func (l *Counts[ID]) search(id ID) int {
	lo, hi := 0, len(l.IDs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if l.IDs[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Get returns the count for id (0 when absent).
func (l *Counts[ID]) Get(id ID) int32 {
	i := l.search(id)
	if i < len(l.IDs) && l.IDs[i] == id {
		return l.N[i]
	}
	return 0
}

// Contains reports whether id has a positive count.
func (l *Counts[ID]) Contains(id ID) bool { return l.Get(id) > 0 }

// Add adjusts id's count by delta and returns the new value. A count that
// reaches zero is removed (so IDs only ever holds live entries); driving a
// count negative panics — counter underflow means index corruption
// upstream, exactly like the map-based addIEdgeCount did.
func (l *Counts[ID]) Add(id ID, delta int32) int32 {
	i := l.search(id)
	if i < len(l.IDs) && l.IDs[i] == id {
		c := l.N[i] + delta
		switch {
		case c > 0:
			l.N[i] = c
		case c == 0:
			l.IDs = append(l.IDs[:i], l.IDs[i+1:]...)
			l.N = append(l.N[:i], l.N[i+1:]...)
		default:
			panic("ilist: negative count")
		}
		return c
	}
	if delta < 0 {
		panic("ilist: negative count")
	}
	if delta == 0 {
		return 0
	}
	l.IDs = append(l.IDs, 0)
	l.N = append(l.N, 0)
	copy(l.IDs[i+1:], l.IDs[i:])
	copy(l.N[i+1:], l.N[i:])
	l.IDs[i], l.N[i] = id, delta
	return delta
}

// Len returns the number of distinct ids.
func (l *Counts[ID]) Len() int { return len(l.IDs) }

// Reset empties the list, keeping capacity for reuse.
func (l *Counts[ID]) Reset() {
	l.IDs = l.IDs[:0]
	l.N = l.N[:0]
}

// Equal reports whether two lists hold the same (id, count) pairs. Sorted
// invariant makes this a single parallel walk.
func (l *Counts[ID]) Equal(o *Counts[ID]) bool {
	if len(l.IDs) != len(o.IDs) {
		return false
	}
	for i := range l.IDs {
		if l.IDs[i] != o.IDs[i] || l.N[i] != o.N[i] {
			return false
		}
	}
	return true
}

// EqualIDs reports whether two lists hold the same id sets, ignoring
// counts. This is the merge-partner key comparison: same label + same
// pred-inode set, multiplicities irrelevant.
func (l *Counts[ID]) EqualIDs(o *Counts[ID]) bool {
	if len(l.IDs) != len(o.IDs) {
		return false
	}
	for i := range l.IDs {
		if l.IDs[i] != o.IDs[i] {
			return false
		}
	}
	return true
}
