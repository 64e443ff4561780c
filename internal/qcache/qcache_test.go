package qcache

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"testing"
	"unsafe"

	"structix/internal/graph"
)

// Distinct tag values standing in for published snapshots.
type tag struct{ n int }

func nodes(ids ...graph.NodeID) []graph.NodeID { return ids }

func TestCacheGetPut(t *testing.T) {
	c := New(8)
	t1 := &tag{1}
	c.Advance(t1, nil, true) // set the initial tag

	if _, ok := c.Get("/a", t1); ok {
		t.Fatal("hit on an empty cache")
	}
	c.Put("/a", t1, nodes(1, 2, 3), []int32{0, 4}, true)
	got, ok := c.Get("/a", t1)
	if !ok || len(got) != 3 {
		t.Fatalf("get after put: %v %v", got, ok)
	}
	// A reader holding an older snapshot must never be served the new
	// tag's entries.
	if _, ok := c.Get("/a", &tag{1}); ok {
		t.Fatal("hit under a foreign tag")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Puts != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v", st)
	}
	if hr := st.HitRate(); hr <= 0.3 || hr >= 0.4 {
		t.Fatalf("hit rate %.2f, want 1/3", hr)
	}
}

func TestCachePreciseInvalidation(t *testing.T) {
	c := New(8)
	t1, t2 := &tag{1}, &tag{2}
	c.Advance(t1, nil, true)
	c.Put("/a", t1, nodes(1), []int32{2, 5, 9}, true)
	c.Put("/b", t1, nodes(2), []int32{7}, true)
	c.Put("/pred", t1, nodes(3), nil, false) // imprecise: predicate-bearing

	// Commit dirtying inode 5: inside /a's footprint, outside /b's. The
	// imprecise entry goes regardless.
	c.Advance(t2, []int32{5, 100}, false)
	if _, ok := c.Get("/a", t2); ok {
		t.Fatal("entry with a dirtied footprint survived")
	}
	if got, ok := c.Get("/b", t2); !ok || got[0] != 2 {
		t.Fatal("entry with a disjoint footprint was flushed")
	}
	if _, ok := c.Get("/pred", t2); ok {
		t.Fatal("imprecise entry survived a commit")
	}
	if st := c.Stats(); st.Invalidated != 2 || st.Entries != 1 {
		t.Fatalf("stats %+v, want 2 invalidated, 1 entry", st)
	}

	// A full flush (unknown delta) takes everything, disjoint or not.
	c.Advance(&tag{3}, nil, true)
	if c.Len() != 0 {
		t.Fatalf("%d entries after a full flush", c.Len())
	}
}

func TestCacheStalePut(t *testing.T) {
	c := New(8)
	t1, t2 := &tag{1}, &tag{2}
	c.Advance(t1, nil, true)
	c.Advance(t2, nil, true)
	// A result computed against the superseded snapshot must be dropped,
	// not served under the new tag.
	c.Put("/a", t1, nodes(1), nil, true)
	if _, ok := c.Get("/a", t2); ok {
		t.Fatal("stale put was cached")
	}
	if st := c.Stats(); st.StalePuts != 1 || st.Entries != 0 {
		t.Fatalf("stats %+v, want 1 stale put", st)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := New(3)
	t1 := &tag{1}
	c.Advance(t1, nil, true)
	for i := 0; i < 3; i++ {
		c.Put(fmt.Sprintf("/q%d", i), t1, nodes(graph.NodeID(i)), nil, true)
	}
	c.Get("/q0", t1) // refresh q0: q1 becomes the LRU victim
	c.Put("/q3", t1, nodes(3), nil, true)
	if _, ok := c.Get("/q1", t1); ok {
		t.Fatal("LRU victim survived")
	}
	for _, k := range []string{"/q0", "/q2", "/q3"} {
		if _, ok := c.Get(k, t1); !ok {
			t.Fatalf("%s evicted, want only /q1", k)
		}
	}
	if st := c.Stats(); st.Evicted != 1 || st.Entries != 3 {
		t.Fatalf("stats %+v, want 1 evicted, 3 entries", st)
	}
	// Replacing an existing key is not an eviction.
	c.Put("/q0", t1, nodes(9), []int32{1}, true)
	if got, _ := c.Get("/q0", t1); got[0] != 9 {
		t.Fatal("replace did not update the entry")
	}
	if st := c.Stats(); st.Evicted != 1 || st.Entries != 3 {
		t.Fatalf("stats after replace %+v", st)
	}
}

func TestCacheDefaultCapacity(t *testing.T) {
	if c := New(0); c.max != DefaultMaxEntries {
		t.Fatalf("max %d, want %d", c.max, DefaultMaxEntries)
	}
}

func TestIntersects(t *testing.T) {
	cases := []struct {
		fp, dirty []int32
		want      bool
	}{
		{nil, nil, false},
		{[]int32{1, 2}, nil, false},
		{nil, []int32{1, 2}, false},
		{[]int32{1, 3, 5}, []int32{2, 4, 6}, false}, // same word, other bits
		{[]int32{1, 3, 5}, []int32{5}, true},
		{[]int32{7}, []int32{1, 7, 9}, true}, // dirty longer: words searched in dirty
		{[]int32{7}, []int32{1, 71, 135}, false},
		{[]int32{64, 200_000}, []int32{200_000}, true},
		{[]int32{64, 200_000}, []int32{65, 199_999, 200_001}, false},
		{[]int32{0, 63, 64, 127}, []int32{62, 128}, false},
		{[]int32{0, 63, 64, 127}, []int32{126, 127}, true},
		{[]int32{5, 70, 900}, []int32{0, 1, 2, 3, 4, 6, 900}, true},
		{[]int32{5, 70, 900}, []int32{0, 1, 2, 3, 4, 6, 901}, false},
	}
	for _, tc := range cases {
		f := newBitmap(tc.fp)
		if got := f.intersects(tc.dirty); got != tc.want {
			t.Errorf("bitmap(%v).intersects(%v) = %v", tc.fp, tc.dirty, got)
		}
		if f.slots != int64(len(tc.fp)) {
			t.Errorf("bitmap(%v) holds %d slots", tc.fp, f.slots)
		}
	}
}

// bitmapBytes is what b holds beyond the entry itself: a word index and a
// bit word per non-zero 64-slot word.
func bitmapBytes(b bitmap) int {
	return cap(b.word)*int(unsafe.Sizeof(int32(0))) + cap(b.bits)*int(unsafe.Sizeof(uint64(0)))
}

// entryBytes is what the cache holds for key beyond its result: the entry
// record and its footprint bitmap.
func entryBytes(t *testing.T, c *Cache, key string) int {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		t.Fatalf("%s not cached", key)
	}
	return int(unsafe.Sizeof(*e)) + bitmapBytes(e.fp)
}

// A footprint costs 12 bytes per non-zero 64-slot word: a `//` walk
// expanding all 134,969 slots of the xmark-f1 1-index costs ≤ 12·⌈N/64⌉
// bytes (the sorted list cost 4·N), one far-out slot 12 bytes, and an
// imprecise entry none.
func TestFootprintBytes(t *testing.T) {
	const n = 134_969
	all := make([]int32, n)
	for i := range all {
		all[i] = int32(i)
	}
	c := New(8)
	t1 := &tag{1}
	c.Advance(t1, nil, true)
	c.Put("//all", t1, nodes(1), all, true)
	c.Put("/far", t1, nodes(2), []int32{n - 1}, true)
	c.Put("/pred", t1, nodes(3), all, false)
	constant := int(unsafe.Sizeof(entry{}))
	for _, tc := range []struct {
		key  string
		want int
	}{
		{"//all", 12*((n+63)/64) + constant},
		{"/far", 12 + constant},
		{"/pred", constant},
	} {
		if got := entryBytes(t, c, tc.key); got > tc.want {
			t.Errorf("%s holds %d bytes, want ≤ %d", tc.key, got, tc.want)
		}
	}
	if got, want := c.Stats().FootprintSlots, int64(n+1); got != want {
		t.Errorf("FootprintSlots %d, want %d", got, want)
	}
}

// mergeIntersects is the sorted-list merge footprints used to be tested
// with: the oracle for the bitmap.
func mergeIntersects(a, b []int32) bool {
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			return true
		}
	}
	return false
}

// decodeSlotSets reads two strictly ascending slot sets from data, one
// byte per slot: bit 0 picks the set, the rest is the gap to the set's
// previous slot, and gap 127 takes the next two bytes as a jump of up to
// 2^24 slots, so dense runs and far-out words are both a few bytes away.
func decodeSlotSets(data []byte) (slots, dirty []int32) {
	var next [2]int32
	for i := 0; i < len(data); i++ {
		b := data[i]
		gap := int32(b >> 1)
		if gap == 127 && i+2 < len(data) {
			gap = int32(data[i+1])<<16 | int32(data[i+2])<<8
			i += 2
		}
		s := next[b&1] + gap
		if s > math.MaxInt32-1<<25 {
			break
		}
		if b&1 == 0 {
			slots = append(slots, s)
		} else {
			dirty = append(dirty, s)
		}
		next[b&1] = s + 1
	}
	return slots, dirty
}

// FuzzFootprint: for any slot set and dirty set, the bitmap's intersects
// equals a sorted-list merge, the bitmap decodes back to the slot set, it
// holds 12 bytes per non-zero word — never more than 3× the list or 1.5×
// a plain bitmap — and Advance keeps an entry exactly when the sets are
// disjoint.
func FuzzFootprint(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 254, 1, 0, 3, 0})
	f.Add([]byte{254, 0, 1, 255, 0, 1, 1, 0})
	f.Add([]byte{1, 1, 1, 1, 1, 128, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		slots, dirty := decodeSlotSets(data)
		b := newBitmap(slots)
		if got, want := b.intersects(dirty), mergeIntersects(slots, dirty); got != want {
			t.Fatalf("intersects %v, merge %v (slots %v, dirty %v)", got, want, slots, dirty)
		}
		var back []int32
		for i, w := range b.bits {
			for ; w != 0; w &= w - 1 {
				back = append(back, b.word[i]<<6|int32(bits.TrailingZeros64(w)))
			}
		}
		if !slices.Equal(back, slots) || b.slots != int64(len(slots)) {
			t.Fatalf("slots %v round-trip to %v, count %d", slots, back, b.slots)
		}
		if len(slots) > 0 {
			span := (int(slots[len(slots)-1]) + 64) / 64
			if got := bitmapBytes(b); got != 12*len(b.word) || got > 12*min(len(slots), span) {
				t.Fatalf("%d slots spanning %d words held in %d bytes over %d words", len(slots), span, got, len(b.word))
			}
		}
		c := New(1)
		t1 := &tag{1}
		c.Advance(t1, nil, true)
		c.Put("/q", t1, nodes(1), slots, true)
		c.Advance(&tag{2}, slices.Clone(dirty), false)
		if kept := c.Len() == 1; kept == mergeIntersects(slots, dirty) {
			t.Fatalf("entry kept %v with slots %v, dirty %v", kept, slots, dirty)
		}
	})
}

// The hot-path lookup is allocation-free: a warm hit costs a map probe and
// a list move, nothing else.
func TestCacheGetZeroAlloc(t *testing.T) {
	c := New(8)
	t1 := &tag{1}
	c.Advance(t1, nil, true)
	c.Put("/a", t1, nodes(1, 2, 3), []int32{0}, true)
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := c.Get("/a", t1); !ok {
			t.Fatal("miss")
		}
	}); n != 0 {
		t.Errorf("warm Get allocates %.1f/op, want 0", n)
	}
}

// liveFootprintSlots counts the slots the entries' bitmaps actually hold.
func liveFootprintSlots(c *Cache) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n int64
	for _, e := range c.entries {
		for _, w := range e.fp.bits {
			n += int64(bits.OnesCount64(w))
		}
	}
	return n
}

// The running FootprintSlots total equals the sum over live entries after
// every way an entry comes and goes: Put, replacing Put, LRU eviction,
// targeted and full Advance, and a dropped stale Put.
func TestFootprintSlotsTotal(t *testing.T) {
	c := New(3)
	t1, t2, t3 := &tag{1}, &tag{2}, &tag{3}
	check := func(step string, want int64) {
		t.Helper()
		got := c.Stats().FootprintSlots
		if live := liveFootprintSlots(c); got != live || got != want {
			t.Fatalf("%s: FootprintSlots %d, live entries hold %d, want %d", step, got, live, want)
		}
	}
	c.Advance(t1, nil, true)
	check("empty", 0)
	c.Put("/a", t1, nodes(1), []int32{1, 2, 3}, true)
	c.Put("/b", t1, nodes(2), []int32{4, 5}, true)
	check("put", 5)
	c.Put("/a", t1, nodes(1), []int32{1, 2, 3, 6, 7}, true)
	check("replace, longer", 7)
	c.Put("/b", t1, nodes(2), []int32{4}, true)
	check("replace, shorter", 6)
	c.Put("/pred", t1, nodes(3), nil, false)
	c.Put("/c", t1, nodes(4), []int32{8, 9}, true) // capacity 3: evicts /a
	check("evict", 3)
	c.Put("/stale", &tag{0}, nodes(5), []int32{10, 11}, true)
	check("stale put", 3)
	c.Advance(t2, []int32{9, 100}, false) // drops /c (dirty) and /pred (imprecise)
	check("advance", 1)
	c.Advance(t3, nil, true)
	check("full advance", 0)
}

// advanceFixture fills a cache with n entries of fpLen-slot footprints
// over the even slots, and returns nDirty odd dirty slots spread across
// the same range: every probe runs its full binary search and no entry is
// dropped, so repeated Advances see the same cache.
func advanceFixture(n, fpLen, nDirty int) (*Cache, []int32) {
	c := New(n)
	t0 := &tag{0}
	c.Advance(t0, nil, true)
	for i := 0; i < n; i++ {
		fp := make([]int32, fpLen)
		for j := range fp {
			fp[j] = int32(2 * (j + i))
		}
		c.Put(fmt.Sprintf("/q%d", i), t0, nodes(graph.NodeID(i)), fp, true)
	}
	dirty := make([]int32, nDirty)
	for j := range dirty {
		dirty[j] = int32(2*(nDirty-j)*(fpLen/nDirty) - 1) // descending: Advance sorts
	}
	return c, dirty
}

// Advance allocates nothing: the dirty slice is sorted in place and every
// footprint probed where it lies.
func TestCacheAdvanceZeroAlloc(t *testing.T) {
	c, dirty := advanceFixture(16, 1000, 8)
	tags := [2]*tag{{1}, {2}}
	i := 0
	if n := testing.AllocsPerRun(100, func() {
		c.Advance(tags[i&1], dirty, false)
		i++
	}); n != 0 {
		t.Errorf("Advance allocates %.1f/op, want 0", n)
	}
	if st := c.Stats(); st.Entries != 16 || st.Invalidated != 0 {
		t.Fatalf("fixture lost entries: %+v", st)
	}
}

// BenchmarkCacheAdvance is one publication against a full cache: 1024
// entries of 10k-slot footprints, 64 dirty slots, nothing invalidated.
func BenchmarkCacheAdvance(b *testing.B) {
	c, dirty := advanceFixture(1024, 10_000, 64)
	tags := [2]*tag{{1}, {2}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Advance(tags[i&1], dirty, false)
	}
	if c.Len() != 1024 {
		b.Fatalf("fixture lost entries: %d left", c.Len())
	}
}
