package server

import (
	"context"
	"sync"
	"sync/atomic"

	"structix"
	"structix/internal/graph"
	"structix/internal/qcache"
	"structix/internal/query"
)

// engine is the server's query evaluation core: a bounded compiled-program
// cache (raw expression → compiled automaton, so hot expressions skip the
// parser entirely), a bounded negative cache for unparsable expressions,
// and one epoch-keyed result cache per shard. Every expression compiles,
// so every miss takes the same route: the automaton walk with its
// footprint, cached precisely. The engine owns the read path; each
// shard's committer calls advance for its shard after every snapshot
// publication there, so cached results can never outlive the epoch they
// were computed in.
//
// On a sharded store the engine evaluates each shard's snapshot
// independently (each against its own cache), translates the per-shard
// results to global ids, and k-way merges the sorted sections — the
// scatter-gather read path. A 1-shard store takes none of those detours:
// run is then exactly the unsharded evaluator.
type engine struct {
	store  *structix.DB
	caches []*qcache.Cache // one per shard; nil when the result cache is disabled

	progs     sync.Map // raw expr string → *query.Compiled
	progCount atomic.Int64
	progCap   int

	// The negative program cache: raw expression → parse error. A client
	// retrying a hot invalid expression costs one map hit per request
	// instead of a parser run; the bound keeps an adversarial stream of
	// unique garbage from growing the map without limit.
	parseErrs   sync.Map // raw expr string → error
	parseErrCnt atomic.Int64
	parseErrCap int
}

// maxPrograms bounds the program cache; expressions beyond the bound are
// parsed per request rather than evicting (real workloads have a small
// hot set, and an adversarial stream of unique expressions should not
// churn it). maxParseErrors bounds the negative cache the same way.
const (
	maxPrograms    = 4096
	maxParseErrors = 1024
)

func newEngine(store *structix.DB, cacheEntries int) *engine {
	e := &engine{
		store:       store,
		progCap:     maxPrograms,
		parseErrCap: maxParseErrors,
	}
	if cacheEntries >= 0 {
		// One cache per shard (the entry bound is per shard): results are
		// keyed by the shard's own snapshot pointer, and each shard's
		// committer advances only its own cache.
		e.caches = make([]*qcache.Cache, store.NumShards())
		for s := range e.caches {
			e.caches[s] = qcache.New(cacheEntries)
			// Set the initial tag so results computed against the boot
			// snapshot are cacheable before the first commit.
			e.caches[s].Advance(store.Shard(s).Snapshot(), nil, true)
		}
	}
	return e
}

// reserve bounds a sync.Map insertion without a check-then-act race: the
// counter is incremented first (claiming a slot), and released again if
// the cap was exceeded or another goroutine stored the same key. The
// counter can transiently overshoot cap while claims are in flight, but
// the map itself never exceeds it.
func reserve(cnt *atomic.Int64, cap int, store func() (loaded bool)) {
	if cnt.Add(1) > int64(cap) {
		cnt.Add(-1)
		return
	}
	if store() {
		cnt.Add(-1)
	}
}

// program parses and compiles expr, with its predicates in cost order,
// serving repeats — including repeats of invalid expressions — from the
// caches. The program's Expr is its result-cache key.
func (e *engine) program(expr string) (*query.Compiled, error) {
	if v, ok := e.progs.Load(expr); ok {
		return v.(*query.Compiled), nil
	}
	if v, ok := e.parseErrs.Load(expr); ok {
		return nil, v.(error)
	}
	p, err := structix.ParsePath(expr)
	if err != nil {
		reserve(&e.parseErrCnt, e.parseErrCap, func() bool {
			_, loaded := e.parseErrs.LoadOrStore(expr, err)
			return loaded
		})
		return nil, err
	}
	c := query.MustCompile(query.OrderPredicates(p))
	reserve(&e.progCount, e.progCap, func() bool {
		_, loaded := e.progs.LoadOrStore(expr, c)
		return loaded
	})
	return c, nil
}

// programs returns the compiled-program cache size for stats, clamped to
// the cap (the reservation counter may transiently overshoot it).
func (e *engine) programs() int {
	n := int(e.progCount.Load())
	if n > e.progCap {
		n = e.progCap
	}
	return n
}

// run evaluates c against the pinned sharded snapshot. On one shard the
// returned slice is shared (a cache entry or a fresh allocation the cache
// now owns): read-only, but always safe to retain and re-slice. On many
// shards it is a fresh merged slice the caller owns. cached reports that
// every section came from a result cache.
func (e *engine) run(ctx context.Context, c *query.Compiled, snap *structix.ShardedSnapshot) (nodes []graph.NodeID, cached bool, err error) {
	if snap.NumShards() == 1 {
		return e.runShard(ctx, c, 0, snap.Shard(0))
	}
	m := snap.Map()
	secs := make([][]graph.NodeID, snap.NumShards())
	total := 0
	cached = true
	for s := 0; s < snap.NumShards(); s++ {
		local, hit, err := e.runShard(ctx, c, s, snap.Shard(s))
		if err != nil {
			return nil, false, err
		}
		cached = cached && hit
		// Translate to global ids into a fresh section: cache entries are
		// shared read-only and must not be rewritten in place. Striping is
		// monotone per shard, so each translated section stays sorted.
		secs[s] = m.AppendGlobal(make([]graph.NodeID, 0, len(local)), s, local)
		total += len(local)
	}
	return structix.MergeShardResults(make([]graph.NodeID, 0, total), secs), cached, nil
}

// runShard evaluates c against one shard's snapshot, consulting that
// shard's result cache first. Results are in the shard's local id space.
func (e *engine) runShard(ctx context.Context, c *query.Compiled, s int, snap *structix.Snapshot) (nodes []graph.NodeID, cached bool, err error) {
	if e.caches == nil {
		nodes, err = c.EvalSnapshotIntoCtx(ctx, nil, nil, snap)
		return nodes, false, err
	}
	cache := e.caches[s]
	if nodes, ok := cache.Get(c.Expr(), snap); ok {
		return nodes, true, nil
	}
	nodes, footprint, precise, err := c.EvalSnapshotFootprint(ctx, nil, snap)
	if err != nil {
		return nil, false, err
	}
	cache.Put(c.Expr(), snap, nodes, footprint, precise)
	return nodes, false, nil
}

// advance re-keys shard s's result cache to its just-published snapshot,
// evicting exactly the entries the commit's dirty-inode set could have
// affected. Called only from shard s's committer goroutine (publications
// are sequential per shard), plus once at construction.
func (e *engine) advance(s int) {
	if e.caches == nil {
		return
	}
	snap := e.store.Shard(s).Snapshot()
	changed, ok := snap.Changed()
	var dirty []int32
	if ok {
		dirty = make([]int32, len(changed))
		for i, c := range changed {
			dirty[i] = int32(c)
		}
	}
	e.caches[s].Advance(snap, dirty, !ok)
}

// cacheStats returns result-cache counters summed across shards (zero
// Stats when disabled).
func (e *engine) cacheStats() qcache.Stats {
	var agg qcache.Stats
	for _, c := range e.caches {
		cs := c.Stats()
		agg.Hits += cs.Hits
		agg.Misses += cs.Misses
		agg.Puts += cs.Puts
		agg.StalePuts += cs.StalePuts
		agg.Invalidated += cs.Invalidated
		agg.Evicted += cs.Evicted
		agg.Entries += cs.Entries
		agg.FootprintSlots += cs.FootprintSlots
	}
	return agg
}
