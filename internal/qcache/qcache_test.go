package qcache

import (
	"fmt"
	"testing"

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
		a, b []int32
		want bool
	}{
		{nil, nil, false},
		{[]int32{1, 2}, nil, false},
		{[]int32{1, 3, 5}, []int32{2, 4, 6}, false},
		{[]int32{1, 3, 5}, []int32{5}, true},
		{[]int32{7}, []int32{1, 7, 9}, true},
	}
	for _, tc := range cases {
		if got := intersects(tc.a, tc.b); got != tc.want {
			t.Errorf("intersects(%v, %v) = %v", tc.a, tc.b, got)
		}
	}
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

// liveFootprintSlots sums the footprints of the entries actually held.
func liveFootprintSlots(c *Cache) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n int64
	for _, e := range c.entries {
		n += int64(len(e.footprint))
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
