// Package sigtab interns variable-length int32 signatures into dense ids
// using an open-addressed hash table over a flat arena.
//
// It replaces the string-keyed maps the index cores used for signature
// grouping: the partition refinement engine's grouping of a block's
// members by their parents' blocks, and the merge-partner grouping in
// oneindex/akindex (label + sorted pred-inode ids). A signature is any
// []int32; equal slices intern to the same dense id, and ids are assigned
// in first-appearance order.
//
// The table hashes with FNV-1a over the signature's little-endian bytes,
// probes linearly, and collision-checks against the arena. Nothing escapes
// to the heap per lookup; Reset keeps every buffer for the next round.
package sigtab

import "slices"

// fnv1a hashes a signature's int32s as 4 little-endian bytes each.
// (Matching the byte-level FNV the stdlib uses keeps the constant choice
// boring and well-studied; hashing per-int32 instead of per-byte would be
// faster but mixes low-entropy small ints poorly.)
func fnv1a(sig []int32) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for _, v := range sig {
		u := uint32(v)
		h = (h ^ (u & 0xff)) * prime32
		h = (h ^ ((u >> 8) & 0xff)) * prime32
		h = (h ^ ((u >> 16) & 0xff)) * prime32
		h = (h ^ (u >> 24)) * prime32
	}
	return h
}

// Table interns signatures. The zero value is ready for use.
type Table struct {
	arena []int32  // interned signatures, concatenated
	start []int32  // start[i] = offset of signature i; start[n] = len(arena)
	hash  []uint32 // cached hash per signature, for rehashing on growth
	slots []int32  // open-addressed: signature index + 1; 0 = empty
	mask  uint32   // len(slots) - 1
}

// Len returns the number of distinct interned signatures.
func (t *Table) Len() int {
	if len(t.start) == 0 {
		return 0
	}
	return len(t.start) - 1
}

// Sig returns the interned signature for a dense id as a view into the
// arena. Valid until the next Reset; must not be mutated.
func (t *Table) Sig(id int32) []int32 {
	return t.arena[t.start[id]:t.start[id+1]]
}

// Reset empties the table, keeping all buffers for reuse. The slot table
// never shrinks, so when under a quarter of it is in use Reset clears just
// the used slots, each found by probing from its signature's hash: a table
// once grown for a large round stays cheap to reuse for small ones.
func (t *Table) Reset() {
	if 4*t.Len() < len(t.slots) {
		for id, h := range t.hash {
			i := h & t.mask
			for t.slots[i] != int32(id)+1 {
				i = (i + 1) & t.mask
			}
			t.slots[i] = 0
		}
	} else {
		clear(t.slots)
	}
	t.arena = t.arena[:0]
	t.start = t.start[:0]
	t.hash = t.hash[:0]
}

// Grow pre-sizes the slot table for n signatures, avoiding rehashes when
// the caller knows the round's cardinality bound up front.
func (t *Table) Grow(n int) {
	want := 8
	for want < n*2 {
		want <<= 1
	}
	if want > len(t.slots) {
		t.rehash(want)
	}
}

// Intern returns the dense id of sig, assigning the next id (== Len before
// the call) on first appearance. The second result reports whether the
// signature was new. sig is copied into the arena when new; the caller's
// slice is never retained.
func (t *Table) Intern(sig []int32) (int32, bool) {
	n := t.Len()
	if 2*(n+1) > len(t.slots) {
		want := len(t.slots) * 2
		if want < 8 {
			want = 8
		}
		t.rehash(want)
	}
	h := fnv1a(sig)
	i := h & t.mask
	for {
		s := t.slots[i]
		if s == 0 {
			// New signature: append to the arena and claim the slot.
			id := int32(n)
			if len(t.start) == 0 {
				t.start = append(t.start, 0)
			}
			t.arena = append(t.arena, sig...)
			t.start = append(t.start, int32(len(t.arena)))
			t.hash = append(t.hash, h)
			t.slots[i] = id + 1
			return id, true
		}
		id := s - 1
		if t.hash[id] == h && slices.Equal(t.Sig(id), sig) {
			return id, false
		}
		i = (i + 1) & t.mask
	}
}

// Lookup returns the dense id of sig, or -1 when it was never interned.
func (t *Table) Lookup(sig []int32) int32 {
	if len(t.slots) == 0 {
		return -1
	}
	h := fnv1a(sig)
	i := h & t.mask
	for {
		s := t.slots[i]
		if s == 0 {
			return -1
		}
		id := s - 1
		if t.hash[id] == h && slices.Equal(t.Sig(id), sig) {
			return id
		}
		i = (i + 1) & t.mask
	}
}

// rehash resizes the slot table to want (a power of two) and reinserts
// every interned signature from its cached hash.
func (t *Table) rehash(want int) {
	if cap(t.slots) >= want {
		t.slots = t.slots[:want]
		clear(t.slots)
	} else {
		t.slots = make([]int32, want)
	}
	t.mask = uint32(want - 1)
	for id, h := range t.hash {
		i := h & t.mask
		for t.slots[i] != 0 {
			i = (i + 1) & t.mask
		}
		t.slots[i] = int32(id) + 1
	}
}
