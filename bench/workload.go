package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"structix"
	"structix/internal/client"
	"structix/internal/graph"
	"structix/internal/server"
)

// spec is one workload: a dataset, the main-phase traffic, and the reason
// it exists. The names are a contract — later issues cite them.
type spec struct {
	name    string
	dataset string
	why     string
	// actors builds the main phase's two clients and the least number of
	// warm-up steps each must take.
	actors func(r *run) (actors []actor, minWarmSteps int, err error)
	// validity, when set, asserts the main window's result-cache hit rate:
	// a read workload that does not hit (or miss) the cache as designed is
	// measuring something else.
	validity func(hitRate float64) (ok bool, want string)
}

const clients = 2 // = nproc on the reference machine; never more connections than cores

var specs = []spec{
	{
		name: "read_hot", dataset: "xmark-f1",
		why: "6 fixed expressions, result cache hits ~100%: decode/encode, cache probe and wire only; the bypass workload for query-kernel changes",
		actors: func(r *run) ([]actor, int, error) {
			cur := new(atomic.Int64)
			return []actor{
				&reader{cli: r.newClient(), exprs: hotExprs, cursor: cur},
				&reader{cli: r.newClient(), exprs: hotExprs, cursor: cur},
			}, len(hotExprs), nil
		},
		validity: func(h float64) (bool, string) { return h > 0.98, "> 0.98" },
	},
	{
		name: "read_cold", dataset: "xmark-f1",
		why: "1536-expression cycle > the 1024-entry result cache, < the program cache: LRU worst case, automaton walk and extent kernels do the work",
		actors: func(r *run) ([]actor, int, error) {
			pool, err := r.ds.exprPool(r.rng, coldExprs)
			if err != nil {
				return nil, 0, err
			}
			cur := new(atomic.Int64)
			// One full pass between the two readers compiles every program.
			return []actor{
				&reader{cli: r.newClient(), exprs: pool, cursor: cur},
				&reader{cli: r.newClient(), exprs: pool, cursor: cur},
			}, coldExprs / clients, nil
		},
		validity: func(h float64) (bool, string) { return h < 0.02, "< 0.02" },
	},
	{
		name: "write_small", dataset: "xmark-d8",
		why: "8-op IDREF edge batches on a small graph: publication is cheap, so window wait, WAL append+fsync, split/merge and HTTP dominate",
		actors: func(r *run) ([]actor, int, error) {
			return []actor{r.newWriter(r.newClient(), 0), r.newWriter(r.newClient(), 1)}, 0, nil
		},
	},
	{
		name: "write_large", dataset: "xmark-f2",
		why: "the same edge traffic on a 16x graph: Frozen.Rebuild and PatchSnapshot copy O(graph) per commit, so publication dominates; also recovery and space",
		actors: func(r *run) ([]actor, int, error) {
			return []actor{r.newWriter(r.newClient(), 0), r.newWriter(r.newClient(), 1)}, 0, nil
		},
	},
	{
		name: "mixed", dataset: "xmark-f1",
		why: "90% reads over a 256-expression pool beside 10% writes (3:1 edge batches to node scripts): footprint invalidation, cache advance and the full re-freeze path share the layers",
		actors: func(r *run) ([]actor, int, error) {
			pool, err := r.ds.exprPool(r.rng, mixedExprs)
			if err != nil {
				return nil, 0, err
			}
			as := make([]actor, clients)
			for i := range as {
				cli := r.newClient()
				// Each client walks the pool on its own cursor, half a pool
				// from the other's.
				cur := new(atomic.Int64)
				cur.Store(int64(i * mixedExprs / clients))
				as[i] = &mixer{
					r: &reader{cli: cli, exprs: pool, cursor: cur},
					w: r.newWriter(cli, i),
					s: &scripter{cli: cli, parents: r.scriptParents(i)},
				}
			}
			return as, 0, nil
		},
	},
}

const (
	coldExprs  = 1536 // > qcache.DefaultMaxEntries (1024), < the server's 4096-program cache
	mixedExprs = 256  // fits the result cache
)

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// config is everything that shapes a run besides the workload itself.
type config struct {
	seed     int64
	window   time.Duration // measured main window
	warm     time.Duration
	setupFor time.Duration // keep setting up (at least minRepeats times) until this much time is spent
	recovFor time.Duration // the same for SIGKILL + respawn
	smokeDiv int           // > 0: every dataset is DefaultXMark(smokeDiv)
	dir      string
}

// Set-up and recovery are each one sample per spawn, and a spawn on this
// class of machine varies by a tenth either way; the run repeats them and
// reports the median. Small datasets are cheap to repeat and get up to
// maxRepeats samples, large ones stop at minRepeats.
const (
	minRepeats = 3
	maxRepeats = 9
)

func defaultConfig(seed int64, window time.Duration, dir string) config {
	return config{
		seed: seed, window: window, dir: dir,
		warm:     window / 10,
		setupFor: 3 * window / 8,
		recovFor: window / 2,
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the number of samples behind Value: requests for a latency or a
	// rate, iterations for a ladder stage, 1 for a reading.
	N int `json:"n"`
	// Spread and Runs appear when the file aggregates several runs: Value
	// is then the median of Runs and Spread their interquartile distance
	// as a share of it.
	Spread *float64  `json:"spread,omitempty"`
	Runs   []float64 `json:"runs,omitempty"`
}

type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

type workloadResult struct {
	Why       string            `json:"why"`
	Dataset   string            `json:"dataset"`
	Nodes     int               `json:"nodes"`
	Edges     int               `json:"edges"`
	INodes    int               `json:"inodes"`
	Flags     []string          `json:"server_flags"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Checks    []check           `json:"checks"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state of one workload run.
type run struct {
	config
	sp     spec
	traced bool
	bin    string
	procs  *procs
	rng    *rand.Rand
	ds     *dataset
	pools  [][]edge // one per main client, then the recovery pool (which the ladder reuses on its own stores)
	wrote  []int    // the pools a writer was built on: their residual edges are in the server
	srv    *serverProc
	spans  *tracer // client spans, traced runs only
	rungs  *tracer // ladder spans, traced runs only
	res    *workloadResult
}

func (r *run) newClient() *client.Client {
	return client.NewWithHTTPClient(r.srv.base, oneConnClient())
}

// newWriter builds a writer on pool i and remembers that the pool's
// residual edges will be in the drained server.
func (r *run) newWriter(cli *client.Client, i int) *writer {
	r.wrote = append(r.wrote, i)
	return newWriter(cli, r.pools[i])
}

// scriptParents gives scripter i its own open auctions to add bidders
// under: disjoint slices, so no two clients ever script the same parent.
func (r *run) scriptParents(i int) []graph.NodeID {
	per := len(r.ds.auctions) / clients
	return r.ds.auctions[i*per : (i+1)*per]
}

func (r *run) check(name string, ok bool, format string, args ...any) {
	r.res.Checks = append(r.res.Checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

func (r *run) set(name string, value float64, unit string, n int) {
	r.res.Metrics[name] = metric{Value: value, Unit: unit, N: n}
}

func (r *run) count(p phase) {
	r.res.Attempted += p.attempted
	r.res.Failed += p.failed
}

// serverFlags are the only flags the benchmark passes: where to load
// from and where to keep the store. Everything else — the 2 ms commit
// window, queue depth, dense extents, one shard — is the binary's
// default, and the fsync policy is spelled out because it is the flush
// policy every number here depends on.
func serverFlags(load, data string) []string {
	return []string{"-load", load, "-data", data, "-fsync", "window"}
}

// observed is what a server reported about the state it holds, compared
// against the bench's own graph once nothing is being measured any more.
type observed struct {
	stats  server.StatsReply
	probes []int
}

func (r *run) observe(ctx context.Context) (observed, error) {
	var o observed
	var err error
	r.res.Attempted++
	if o.stats, err = r.srv.cli.Stats(ctx); err != nil {
		r.res.Failed++
		return o, fmt.Errorf("stats: %w", err)
	}
	for _, e := range probeExprs {
		r.res.Attempted++
		n, err := r.srv.cli.Count(ctx, e)
		if err != nil {
			r.res.Failed++
			return o, fmt.Errorf("probe %s: %w", e, err)
		}
		o.probes = append(o.probes, n)
	}
	return o, nil
}

// runWorkload is one run of one workload, start to finish:
//
//	dataset → set-up ×k → 64 commits → (SIGKILL → respawn) ×k
//	→ warm-up → main window → drain → observe
//	→ SIGKILL → respawn → observe again → checks
//
// Every workload runs on a durable store, so every workload has a
// recovery to time and to check. A traced run sets up once, records a
// span per client request, reads the server's counters around the main
// window, and then climbs the in-process layer ladder on the same dataset.
func runWorkload(ctx context.Context, cfg config, sp spec, bin string, traced bool) (res *workloadResult, client, ladder *tracer, err error) {
	ps := &procs{}
	defer ps.cleanup()
	stop := context.AfterFunc(ctx, ps.cleanup) // Ctrl-C or the deadline: kill now, not after the current request
	defer stop()

	r := &run{
		config: cfg, sp: sp, traced: traced, bin: bin, procs: ps,
		rng: rand.New(rand.NewSource(cfg.seed)),
		res: &workloadResult{Why: sp.why, Dataset: sp.dataset, Metrics: make(map[string]metric)},
	}
	if traced {
		r.spans, r.rungs = newTracer(), newTracer()
	}
	err = r.execute(ctx)
	r.res.Correct = err == nil && r.res.Failed == 0
	for _, c := range r.res.Checks {
		r.res.Correct = r.res.Correct && c.OK
	}
	return r.res, r.spans, r.rungs, err
}

// repeats reports whether a set-up or recovery loop that has taken n
// samples in spent should take another.
func repeats(n int, spent, budget time.Duration) bool {
	return n < minRepeats || (n < maxRepeats && spent < budget)
}

func (r *run) execute(ctx context.Context) error {
	work, err := r.procs.tempDir(r.dir, r.sp.name+"-")
	if err != nil {
		return err
	}
	if r.ds, err = makeDataset(r.sp.dataset, r.seed, r.smokeDiv, work); err != nil {
		return err
	}
	if r.pools, err = r.ds.edgePools(r.rng, clients+1, poolBatches); err != nil {
		return err
	}

	// Set-up, on a fresh directory each time; the last server stays.
	var setupS []float64
	var dataDir string
	for begin := time.Now(); repeats(len(setupS), time.Since(begin), r.setupFor); {
		if r.srv != nil {
			r.srv.kill()
			os.RemoveAll(dataDir)
		}
		dataDir = filepath.Join(work, fmt.Sprintf("data-%d", len(setupS)))
		var took time.Duration
		if r.srv, took, err = r.procs.spawn(ctx, r.bin, serverFlags(r.ds.file, dataDir)...); err != nil {
			return err
		}
		setupS = append(setupS, took.Seconds())
		if r.traced {
			break // setup_s is an end-to-end metric; a traced run does not report it
		}
	}
	r.res.Flags = r.srv.flags
	snapBytes, err := bootstrapSnapshotBytes(dataDir)
	if err != nil {
		return err
	}

	// Recovery, on a journal of fixed length: one client inserts the
	// recovery pool's 64 batches, then the server is killed and respawned
	// on the same directory, k times — the same recovery each time, since
	// nothing is written in between. Timing the crash after the main
	// window instead would time a journal as long as the window was fast:
	// a change that speeds writes up would be charged for it here.
	tail := newWriter(r.newClient(), r.pools[clients])
	var tailRec recorder
	for b := 0; b < poolBatches && tailRec.failed == 0; b++ {
		tail.step(ctx, &tailRec)
	}
	r.res.Attempted += tailRec.attempted
	r.res.Failed += tailRec.failed
	if tailRec.firstErr != nil {
		return fmt.Errorf("recovery tail: %w", tailRec.firstErr)
	}
	var recoverS []float64
	for begin := time.Now(); repeats(len(recoverS), time.Since(begin), r.recovFor); {
		r.srv.kill()
		var took time.Duration
		if r.srv, took, err = r.procs.spawn(ctx, r.bin, serverFlags(r.ds.file, dataDir)...); err != nil {
			return fmt.Errorf("respawn after SIGKILL: %w", err)
		}
		recoverS = append(recoverS, took.Seconds())
		if r.traced {
			break // recover_s is an end-to-end metric too
		}
	}

	// Warm-up, then the main window between two readings of the server's
	// counters.
	main, minWarm, err := r.sp.actors(r)
	if err != nil {
		return err
	}
	warmP := runPhase(ctx, main, phaseOpts{warm: r.warm, minWarmSteps: minWarm})
	r.count(warmP)
	if warmP.err != nil {
		return fmt.Errorf("warm-up: %w", warmP.err)
	}
	c0, err := r.readCounters(ctx)
	if err != nil {
		return err
	}
	var depthMax atomic.Int64
	stopSampler := func() {}
	if r.traced {
		stopSampler = r.sampleQueueDepth(ctx, &depthMax)
	}
	mainP := runPhase(ctx, main, phaseOpts{window: r.window, spans: r.spans})
	stopSampler()
	r.count(mainP)
	if mainP.err != nil {
		return fmt.Errorf("main window: %w", mainP.err)
	}
	c1, err := r.readCounters(ctx)
	if err != nil {
		return err
	}
	drainP := runPhase(ctx, main, phaseOpts{drain: true})
	r.count(drainP)
	if drainP.err != nil {
		return fmt.Errorf("drain: %w", drainP.err)
	}

	// Drained: what does the server hold, and what does it cost to hold it?
	before, err := r.observe(ctx)
	if err != nil {
		return err
	}
	rtEnd, err := r.srv.runtimeStats(ctx)
	if err != nil {
		return err
	}
	cpuS, rssMB, usageOK := r.srv.procUsage()

	// The crash: SIGKILL, then a new process on the same directory. Under
	// -fsync window every acknowledged write was fsynced before its reply,
	// so everything observed above must come back.
	r.srv.kill()
	var windowRecover time.Duration
	if r.srv, windowRecover, err = r.procs.spawn(ctx, r.bin, serverFlags(r.ds.file, dataDir)...); err != nil {
		return fmt.Errorf("respawn after SIGKILL: %w", err)
	}
	after, err := r.observe(ctx)
	if err != nil {
		return err
	}
	r.srv.kill()

	// Nothing is being measured any more: build the oracle.
	model := r.ds.g.Clone()
	left := append([]edge(nil), r.pools[clients]...) // the recovery pool stays inserted whole
	for _, i := range r.wrote {
		left = append(left, residualEdges(r.pools[i])...)
	}
	for _, e := range left {
		if err := model.AddEdge(e[0], e[1], graph.IDRef); err != nil {
			return fmt.Errorf("oracle: %w", err)
		}
	}
	minSize := structix.MinimumOneIndexSize(model)

	st := before.stats
	r.res.Nodes, r.res.Edges, r.res.INodes = st.Nodes, st.Edges, st.INodes
	r.check("drain.nodes", st.Nodes == model.NumNodes(), "server %d, oracle %d", st.Nodes, model.NumNodes())
	r.check("drain.edges", st.Edges == model.NumEdges(), "server %d, oracle %d (%d residual)", st.Edges, model.NumEdges(), len(left))
	for i, e := range probeExprs {
		want := len(structix.EvalGraph(structix.MustParsePath(e), model))
		r.check("drain.probe "+e, before.probes[i] == want, "server %d, oracle %d", before.probes[i], want)
		r.check("recover.probe "+e, after.probes[i] == want, "recovered %d, oracle %d", after.probes[i], want)
	}
	r.check("recover.applied_seq", after.stats.AppliedSeq == st.AppliedSeq, "recovered %d, pre-kill %d", after.stats.AppliedSeq, st.AppliedSeq)
	r.check("recover.inodes", after.stats.INodes == st.INodes, "recovered %d, pre-kill %d", after.stats.INodes, st.INodes)
	r.check("recover.nodes_edges", after.stats.Nodes == st.Nodes && after.stats.Edges == st.Edges,
		"recovered %d/%d, pre-kill %d/%d", after.stats.Nodes, after.stats.Edges, st.Nodes, st.Edges)
	r.check("store.healthy", st.Durable && st.FsyncPolicy == "window" && st.WriteError == "" && st.Rejected == 0,
		"durable=%v fsync=%s write_error=%q rejected=%d", st.Durable, st.FsyncPolicy, st.WriteError, st.Rejected)
	r.check("window.requests", mainP.timed > 0 && mainP.rate > 0, "%d timed, %.1f/s", mainP.timed, mainP.rate)
	hits, misses := float64(c1.stats.CacheHits-c0.stats.CacheHits), float64(c1.stats.CacheMisses-c0.stats.CacheMisses)
	hitRate := ratio(hits, hits+misses)
	if r.sp.validity != nil {
		ok, want := r.sp.validity(hitRate)
		r.check("qcache.hit_rate", ok, "%.4f over the main window, want %s", hitRate, want)
	}

	if !r.traced {
		r.set("setup_s", median(setupS), "s", len(setupS))
		r.set("requests_per_s", mainP.rate, "1/s", mainP.timed)
		r.set("recover_s", median(recoverS), "s", len(recoverS))
		r.set("heap_mb", rtEnd.heapAlloc/(1<<20), "MB", 1)
		r.set("snapshot_bytes_per_node", ratio(float64(snapBytes), float64(r.ds.g.NumNodes())), "B/node", r.ds.g.NumNodes())
		r.set("index_quality", ratio(float64(st.INodes), float64(minSize)), "ratio", minSize)
		return nil
	}
	r.layerMetrics(mainP, c0, c1, hitRate, after.stats, windowRecover, depthMax.Load(), rtEnd, cpuS, rssMB, usageOK)

	// The in-process ladder, on its own stores of the same dataset.
	exprs, err := r.ds.exprPool(r.rng, ladderExprs)
	if err != nil {
		return err
	}
	layers, err := runLadder(ctx, r.ds, r.pools[clients], exprs, work, r.rungs)
	if err != nil {
		return err
	}
	for name, m := range layers {
		r.res.Metrics[name] = m
	}
	return nil
}

// counters is one reading of everything the server counts: /v1/stats,
// the /metrics counters /v1/stats lacks, and the Go runtime's. Reading
// forces a collection in the server, so it happens outside the window —
// on traced and untraced runs alike, so both windows start from the same
// heap.
type counters struct {
	stats   server.StatsReply
	prom    map[string]float64
	runtime runtimeStats
}

func (r *run) readCounters(ctx context.Context) (c counters, err error) {
	if c.stats, err = r.srv.cli.Stats(ctx); err != nil {
		return c, fmt.Errorf("stats: %w", err)
	}
	if c.prom, err = r.srv.promCounters(ctx); err != nil {
		return c, fmt.Errorf("metrics: %w", err)
	}
	c.runtime, err = r.srv.runtimeStats(ctx)
	return c, err
}

// layerMetrics publishes the per-layer numbers only a served window can
// show: counter deltas between its two readings, the client's latency
// distribution per request kind, and the server's runtime. A kind the
// workload does not send reports 0 with n=0.
func (r *run) layerMetrics(p phase, c0, c1 counters, hitRate float64, recovered server.StatsReply, windowRecover time.Duration, depthMax int64, rtEnd runtimeStats, cpuS, rssMB float64, usageOK bool) {
	s0, s1 := c0.stats, c1.stats
	scripts := c1.prom["structix_commit_scripts_total"] - c0.prom["structix_commit_scripts_total"]
	commits := float64(s1.Batches-s0.Batches) + scripts
	r.set("wal.syncs_per_commit", ratio(float64(s1.JournalSyncs-s0.JournalSyncs), commits), "ratio", int(commits))
	r.set("wal.journal_bytes_per_op", ratio(float64(s1.JournalBytes-s0.JournalBytes), float64(s1.BatchedOps-s0.BatchedOps)+scriptNodes*scripts), "B/op", int(s1.BatchedOps-s0.BatchedOps))
	r.set("wal.window_recover_s", windowRecover.Seconds(), "s", 1)
	r.set("wal.replayed_records", float64(recovered.ReplayedRecords), "count", 1)
	r.set("qcache.hit_rate", hitRate, "ratio", int(s1.Queries-s0.Queries))
	r.set("qcache.invalidated_per_commit", ratio(float64(s1.CacheInvalidated-s0.CacheInvalidated), commits), "count", int(commits))
	r.set("qcache.entries", float64(s1.CacheEntries), "count", 1)
	r.set("server.mean_batch_size", ratio(float64(s1.BatchedOps-s0.BatchedOps), float64(s1.Batches-s0.Batches)), "count", int(s1.Batches-s0.Batches))
	r.set("server.rejected", float64(s1.Rejected), "count", 1)
	r.set("server.queue_depth_max", float64(depthMax), "count", 1)
	for k, name := range kindNames {
		lat := p.lat[k]
		r.set("client."+name+"_p50_us", lat.pct(0.50), "us", len(lat))
		r.set("client."+name+"_p90_us", lat.pct(0.90), "us", len(lat))
		r.set("client."+name+"_p99_us", lat.pct(0.99), "us", len(lat))
		r.set("client."+name+"_max_us", lat.pct(1), "us", len(lat))
	}
	r.set("client.edge_ops_per_s", float64(p.edgeOps)/r.window.Seconds(), "1/s", p.edgeOps)
	r.set("go.allocs_per_request", ratio(c1.runtime.mallocs-c0.runtime.mallocs, float64(p.timed)), "count", p.timed)
	r.set("go.gc_cpu_frac", rtEnd.gcCPUFraction, "ratio", 1)
	n := 0
	if usageOK {
		n = 1
	}
	r.set("go.server_cpu_s", cpuS, "s", n)
	r.set("go.peak_rss_mb", rssMB, "MB", n)
	r.set("bench.datagen_s", r.ds.genS, "s", 1)
	r.set("bench.generator_idle_frac", p.idleFrac, "ratio", p.timed)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// bootstrapSnapshotBytes is the size of the one snapshot a fresh store
// writes during Open, before any journaling.
func bootstrapSnapshotBytes(dataDir string) (int64, error) {
	entries, err := os.ReadDir(dataDir)
	if err != nil {
		return 0, err
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "snap-") && strings.HasSuffix(e.Name(), ".sx") {
			fi, err := e.Info()
			if err != nil {
				return 0, err
			}
			return fi.Size(), nil
		}
	}
	return 0, fmt.Errorf("no bootstrap snapshot in %s", dataDir)
}

// sampleQueueDepth polls the admission-queue gauge four times a second
// during a traced main window and keeps the maximum. /metrics, not
// /v1/stats: the stats handler walks the whole frozen graph to count
// edges, which would be load of its own.
func (r *run) sampleQueueDepth(ctx context.Context, max *atomic.Int64) (stop func()) {
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		t := time.NewTicker(250 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				if m, err := r.srv.promCounters(ctx); err == nil {
					if d := int64(m["structix_update_queue_depth"]); d > max.Load() {
						max.Store(d)
					}
				}
			}
		}
	}()
	return func() { close(done); <-exited }
}
