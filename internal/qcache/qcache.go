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
// the cached result unchanged (query.EvalSnapshotFootprint spells the
// argument out). Entries without a precise footprint (predicate-bearing
// queries, which read the data graph below their candidates) are
// invalidated on every publication.
//
// The cache is a plain mutex-protected LRU: reads on the serving hot path
// are one map lookup and a list move, allocation-free, and the only
// writer of Advance is the server's single committer goroutine. Advance
// holds the lock for O(|dirty| · log |footprint|) per entry (the shorter
// of the two sets is binary-searched in the longer): its cost follows
// what the commit dirtied, not what the entries hold.
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
	key       string
	nodes     []graph.NodeID // sorted result, owned by the cache: read-only
	footprint []int32        // ascending inode slots the evaluation expanded
	precise   bool           // footprint fully determines the result
	elem      *list.Element
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

	// FootprintSlots is the total length of the live entries' footprints,
	// 4 bytes each: the part of the cache's heap the results do not show.
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
	fpSlots int64      // sum of len(footprint) over entries

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
// nodes and footprint are retained: the caller transfers ownership.
// footprint must be sorted; precise asserts the result depends only on
// the footprint slots (see the package comment). A Put racing a commit —
// its evaluation ran against a snapshot Advance has already superseded —
// is dropped: caching it under the new tag could serve a stale answer.
func (c *Cache) Put(key string, tag any, nodes []graph.NodeID, footprint []int32, precise bool) {
	c.mu.Lock()
	if tag != c.tag {
		c.mu.Unlock()
		c.stalePuts.Add(1)
		return
	}
	if e, ok := c.entries[key]; ok {
		c.fpSlots += int64(len(footprint) - len(e.footprint))
		e.nodes, e.footprint, e.precise = nodes, footprint, precise
		c.lru.MoveToFront(e.elem)
		c.mu.Unlock()
		c.puts.Add(1)
		return
	}
	e := &entry{key: key, nodes: nodes, footprint: footprint, precise: precise}
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	c.fpSlots += int64(len(footprint))
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
		if !full && e.precise && !intersects(e.footprint, dirty) {
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
	c.fpSlots -= int64(len(e.footprint))
}

// intersects reports whether two ascending int32 sets share an element:
// each element of the shorter set is binary-searched in what is left of
// the longer one, O(min·log max) — for a commit's few dirty slots against
// a footprint of thousands, a handful of probes instead of a full merge.
func intersects(a, b []int32) bool {
	if len(a) > len(b) {
		a, b = b, a
	}
	for _, x := range a {
		i, found := slices.BinarySearch(b, x)
		if found {
			return true
		}
		b = b[i:]
	}
	return false
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
