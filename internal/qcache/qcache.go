// Package qcache is an epoch-keyed query-result cache with precise,
// footprint-based invalidation for the snapshot-served read path.
//
// Entries are keyed by the canonical query expression and are valid for
// exactly one published snapshot, identified by an opaque tag (the
// snapshot pointer itself, which makes the "which epoch is this result
// from" check a single pointer comparison — immune to the load/load races
// a separate epoch counter would reintroduce). When a commit publishes
// the next snapshot, Advance carries the surviving entries forward
// instead of flushing wholesale: an entry recorded with a precise
// evaluation footprint (the inode slots the automaton walk expanded, i.e.
// read the successor list of) is kept whenever the commit's dirty-inode
// set — the same delta PatchSnapshot maintains — does not intersect that
// footprint. Soundness is inherited from the index's dirty tracking: a
// result is a function of the expanded slots' successor lists, their
// successors' labels and the accepting slots' extents; a successor list
// or extent changes only by dirtying its slot, and a label changes only
// when the slot dies and is reborn, which first removes its in-edges and
// so dirties every expanded parent. A disjoint dirty set therefore proves
// the cached result unchanged (query's Compiled.EvalSnapshotFootprint
// spells the argument out). Entries without a precise footprint (predicate-bearing
// queries, which read the data graph below their candidates) hold none
// and are invalidated on every publication. A footprint is held as a
// sparse slot bitmap, 12 bytes per non-zero 64-slot word.
//
// The cache is a plain mutex-protected LRU: reads on the serving hot path
// are one map lookup and a list move, allocation-free, and the only
// writer of Advance is the server's single committer goroutine. Advance
// holds the lock for O(min · log max) per entry over the dirty slots and
// the footprint's words: its cost follows what the commit dirtied, not
// what the entries hold.
package qcache

import (
	"container/list"
	"slices"
	"sync"
	"sync/atomic"

	"structix/internal/graph"
)

// DefaultMaxEntries bounds the cache when New is given a non-positive
// capacity.
const DefaultMaxEntries = 1024

type entry struct {
	key     string
	nodes   []graph.NodeID // sorted result, owned by the cache: read-only
	fp      bitmap         // inode slots the evaluation expanded; empty unless precise
	precise bool           // fp fully determines the result
	elem    *list.Element
}

// bitmap is a sparse slot bitmap: the non-zero 64-slot words of a slot
// set, ascending by word index.
type bitmap struct {
	word  []int32  // slot>>6 of the slots in the same-index bits word
	bits  []uint64 // bit b of bits[i] is slot word[i]·64 + b
	slots int64    // slots held
}

// newBitmap encodes a strictly ascending slot list in exactly sized slices.
func newBitmap(slots []int32) bitmap {
	n := 0
	for i := 0; i < len(slots); n++ {
		i = wordEnd(slots, i)
	}
	f := bitmap{word: make([]int32, n), bits: make([]uint64, n), slots: int64(len(slots))}
	for i, k := 0, 0; i < len(slots); k++ {
		j, w := wordEnd(slots, i), ^uint64(0) // a full word
		if j-i < 64 {
			w = 0
			for _, s := range slots[i:j] {
				w |= 1 << (s & 63)
			}
		}
		f.word[k], f.bits[k], i = slots[i]>>6, w, j
	}
	return f
}

// wordEnd returns the end of slots[i]'s word's run; a full word is one probe.
func wordEnd(slots []int32, i int) int {
	if s := slots[i]; s&63 == 0 && i+63 < len(slots) && slots[i+63] == s+63 {
		return i + 64
	}
	j, w := i+1, slots[i]>>6
	for j < len(slots) && slots[j]>>6 == w {
		j++
	}
	return j
}

// intersects reports whether f holds a slot of the ascending set dirty: a
// merge that binary-searches across each gap, O(min · log max), and
// indexes a dense run of words directly.
func (f bitmap) intersects(dirty []int32) bool {
	for i, j := 0, 0; i < len(f.word) && j < len(dirty); {
		w, d := f.word[i], dirty[j]
		switch {
		case d>>6 < w:
			k, _ := slices.BinarySearch(dirty[j:], w<<6)
			j += k
		case d>>6 > w:
			if k := i + int(d>>6-w); k < len(f.word) && f.word[k] == d>>6 {
				i = k
			} else {
				k, _ = slices.BinarySearch(f.word[i:], d>>6)
				i += k
			}
		case f.bits[i]&(1<<(d&63)) != 0:
			return true
		default:
			j++
		}
	}
	return false
}

// Stats is a point-in-time counter snapshot.
type Stats struct {
	Hits        int64 // Get returned a cached result
	Misses      int64 // Get found nothing for the current snapshot
	Puts        int64 // entries stored
	StalePuts   int64 // Put dropped: result computed against a superseded snapshot
	Invalidated int64 // entries evicted by Advance (dirty overlap or imprecise)
	Evicted     int64 // entries evicted by the LRU capacity bound
	Entries     int   // current entry count

	// FootprintSlots is the number of inode slots the live entries'
	// footprints hold (12 bytes per non-zero 64-slot word): the part of the
	// cache's heap the results do not show.
	FootprintSlots int64
}

// HitRate returns hits / (hits + misses), 0 when idle.
func (s Stats) HitRate() float64 {
	t := s.Hits + s.Misses
	if t == 0 {
		return 0
	}
	return float64(s.Hits) / float64(t)
}

// Cache is safe for concurrent use. The zero value is not ready; use New.
type Cache struct {
	mu      sync.Mutex
	max     int
	tag     any // identity of the snapshot current entries are valid for
	entries map[string]*entry
	lru     *list.List // front = most recently used
	fpSlots int64      // sum of fp.slots over entries

	hits        atomic.Int64
	misses      atomic.Int64
	puts        atomic.Int64
	stalePuts   atomic.Int64
	invalidated atomic.Int64
	evicted     atomic.Int64
}

// New builds a cache bounded to maxEntries (DefaultMaxEntries when ≤ 0).
func New(maxEntries int) *Cache {
	if maxEntries <= 0 {
		maxEntries = DefaultMaxEntries
	}
	return &Cache{
		max:     maxEntries,
		entries: make(map[string]*entry),
		lru:     list.New(),
	}
}

// Get returns the cached result for key as evaluated against the snapshot
// identified by tag. The returned slice is shared and read-only. A reader
// holding a snapshot the cache has already advanced past misses — it must
// evaluate for itself rather than be served a result from a different
// epoch.
func (c *Cache) Get(key string, tag any) ([]graph.NodeID, bool) {
	c.mu.Lock()
	if tag != c.tag {
		c.mu.Unlock()
		c.misses.Add(1)
		return nil, false
	}
	e, ok := c.entries[key]
	if !ok {
		c.mu.Unlock()
		c.misses.Add(1)
		return nil, false
	}
	c.lru.MoveToFront(e.elem)
	nodes := e.nodes
	c.mu.Unlock()
	c.hits.Add(1)
	return nodes, true
}

// Put stores a result evaluated against the snapshot identified by tag.
// nodes is retained: the caller transfers ownership. footprint must be
// strictly ascending; it is encoded, not retained, and ignored unless
// precise asserts the result depends only on its slots (see the package
// comment). A Put racing a commit — its evaluation ran against a snapshot
// Advance has already superseded — is dropped: caching it under the new
// tag could serve a stale answer.
func (c *Cache) Put(key string, tag any, nodes []graph.NodeID, footprint []int32, precise bool) {
	var fp bitmap
	if precise {
		fp = newBitmap(footprint)
	}
	c.mu.Lock()
	if tag != c.tag {
		c.mu.Unlock()
		c.stalePuts.Add(1)
		return
	}
	if old, ok := c.entries[key]; ok {
		c.removeLocked(old) // a replacement, not an eviction
	}
	e := &entry{key: key, nodes: nodes, fp: fp, precise: precise}
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	c.fpSlots += fp.slots
	var dropped int64
	for len(c.entries) > c.max {
		back := c.lru.Back()
		c.removeLocked(back.Value.(*entry))
		dropped++
	}
	c.mu.Unlock()
	c.puts.Add(1)
	c.evicted.Add(dropped)
}

// Advance moves the cache to the next published snapshot. dirty is the
// set of inode slots the commit changed (PatchSnapshot's consumed dirty
// set, in any order; Advance sorts it in place); full forces a complete
// flush, for publications whose delta is unknown (a full re-freeze).
// Entries whose precise footprint is disjoint from dirty survive and are
// served under the new tag. Advance must be called by the (single)
// publisher after every snapshot publication, including the initial one
// that sets the first tag.
func (c *Cache) Advance(tag any, dirty []int32, full bool) {
	if !full {
		slices.Sort(dirty)
	}
	var dropped int64
	c.mu.Lock()
	c.tag = tag
	for el := c.lru.Front(); el != nil; {
		e := el.Value.(*entry)
		el = el.Next()
		if !full && e.precise && !e.fp.intersects(dirty) {
			continue
		}
		c.removeLocked(e)
		dropped++
	}
	c.mu.Unlock()
	c.invalidated.Add(dropped)
}

// removeLocked drops e from the map and list; caller holds mu.
func (c *Cache) removeLocked(e *entry) {
	delete(c.entries, e.key)
	c.lru.Remove(e.elem)
	c.fpSlots -= e.fp.slots
}

// Len returns the current entry count.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats returns a point-in-time counter snapshot.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	entries, fpSlots := len(c.entries), c.fpSlots
	c.mu.Unlock()
	return Stats{
		Hits:           c.hits.Load(),
		Misses:         c.misses.Load(),
		Puts:           c.puts.Load(),
		StalePuts:      c.stalePuts.Load(),
		Invalidated:    c.invalidated.Load(),
		Evicted:        c.evicted.Load(),
		Entries:        entries,
		FootprintSlots: fpSlots,
	}
}
