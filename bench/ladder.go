package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"structix"
	"structix/internal/akindex"
	"structix/internal/client"
	"structix/internal/extent"
	"structix/internal/graph"
	"structix/internal/oneindex"
	"structix/internal/opscript"
	"structix/internal/partition"
	"structix/internal/persist"
	"structix/internal/qcache"
	"structix/internal/query"
	"structix/internal/server"
	"structix/internal/shard"
	"structix/internal/wal"
)

// The layer ladder: in this process, on one goroutine, with fixed
// iteration counts, each module's public entry point is called directly
// and timed inside a span. The write ladder climbs from the stages of a
// commit to the whole DB.ApplyBatch, the HTTP handler and the client over
// loopback; the read ladder does the same for one query. Each rung's
// overhead is the rung minus the rung below.

const (
	ladderBatches = 16 // inserted, then deleted: 32 commits per rung
	ladderExprs   = 64
	ladderNodes   = 32 // InsertNode/DeleteNode probes
	ladderScripts = 4  // addnode×4 scripts, then their delnode scripts
	akK           = 3
)

type ladder struct {
	tr  *tracer
	lat map[string]samples
	res map[string]metric
}

// stage times one call inside a span under parent and returns the span id.
func (l *ladder) stage(name string, parent int, fn func()) int {
	start := time.Now()
	fn()
	end := time.Now()
	l.lat[name] = append(l.lat[name], int64(end.Sub(start)))
	return l.tr.add(name, start, end, parent)
}

// What tracing costs a commit is far below what two timings of the same
// commit differ by (a span is a fraction of a microsecond, a commit
// milliseconds, and commits repeat within a fifth at best), so it is not
// measured as traced time over untraced time: the cost of one span is
// measured on empty spans, and charged once per span a traced commit
// records — the write.stages root, its seven stages and structix.commit.
const (
	spanCalibration = 20000
	spansPerCommit  = 9
)

func spanCostNs() float64 {
	cal := &ladder{tr: newTracer(), lat: make(map[string]samples)}
	root := cal.tr.open("calibrate", 0)
	start := time.Now()
	for i := 0; i < spanCalibration; i++ {
		cal.stage("calibrate.span", root, func() {})
	}
	return float64(time.Since(start)) / spanCalibration
}

// allocBytes is how many heap bytes one call allocated. It is read in
// untimed passes only: ReadMemStats stops the world, and a timed stage
// that follows it would start on cold caches.
func allocBytes(fn func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.TotalAlloc - a.TotalAlloc)
}

func (l *ladder) p50(span string) float64 { return p50us(l.lat[span]) }

// total is the summed duration of a span, in nanoseconds.
func (l *ladder) total(span string) int64 {
	var t int64
	for _, d := range l.lat[span] {
		t += d
	}
	return t
}

func (l *ladder) mean(span string) float64 {
	return float64(l.total(span)) / float64(len(l.lat[span]))
}

// us publishes the median of a span as a metric.
func (l *ladder) us(metricName, span string) {
	l.res[metricName] = metric{Value: l.p50(span), Unit: "us", N: len(l.lat[span])}
}

func (l *ladder) set(name string, v float64, unit string, n int) {
	l.res[name] = metric{Value: v, Unit: unit, N: n}
}

// ladderBatchOps turns the first ladderBatches batches of pool into the
// rung's commit sequence: every batch inserted, then every batch deleted,
// so each rung leaves its store as it found it.
func ladderBatchOps(pool []edge) [][]graph.EdgeOp {
	var seq [][]graph.EdgeOp
	for _, insert := range []bool{true, false} {
		for b := 0; b < ladderBatches; b++ {
			ops := make([]graph.EdgeOp, batchOps)
			for i, e := range pool[b*batchOps : (b+1)*batchOps] {
				if insert {
					ops[i] = graph.InsertOp(e[0], e[1], graph.IDRef)
				} else {
					ops[i] = graph.DeleteOp(e[0], e[1])
				}
			}
			seq = append(seq, ops)
		}
	}
	return seq
}

func scriptOps(ops []graph.EdgeOp) []opscript.Op {
	out := make([]opscript.Op, len(ops))
	for i, op := range ops {
		out[i] = server.ScriptOpOf(op)
	}
	return out
}

func touchedOf(ops []graph.EdgeOp) []graph.NodeID {
	t := make([]graph.NodeID, 0, 2*len(ops))
	for _, op := range ops {
		t = append(t, op.U, op.V)
	}
	return t
}

// exprClass sorts an expression into the evaluation metric it feeds.
func exprClass(e string) string {
	switch {
	case strings.Contains(e, "*"):
		return "query.eval_wild"
	case strings.Contains(e, "//"):
		return "query.eval_desc"
	}
	return "query.eval_child"
}

// runLadder runs every layer probe on ds and returns the per-layer
// metrics the traced run reports.
func runLadder(ctx context.Context, ds *dataset, pool []edge, exprs []string, dir string, tr *tracer) (map[string]metric, error) {
	l := &ladder{tr: tr, lat: make(map[string]samples), res: make(map[string]metric)}
	if len(pool) < ladderBatches*batchOps || len(exprs) < ladderExprs {
		return nil, fmt.Errorf("ladder: pool of %d edges / %d expressions is too small", len(pool), len(exprs))
	}
	batches := ladderBatchOps(pool)
	exprs = exprs[:ladderExprs]
	if err := l.construction(ds, dir); err != nil {
		return nil, err
	}
	idx, snap, cache, st, err := l.writeLadder(ds, batches, dir)
	if err != nil {
		return nil, err
	}
	defer st.db.Close() // idempotent: rungs closes it on the way to the reopen
	readOne, publishRead := l.readStages(idx, snap, cache)
	for _, probe := range []func() error{
		func() error { return l.rungs(ctx, ds, st, batches, exprs, readOne) },
		func() error { publishRead(); return l.nodeProbes(ds, idx) },
		func() error { return l.akStages(ds, batches) },
		func() error { l.shardProbes(); return nil },
	} {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := probe(); err != nil {
			return nil, err
		}
	}
	return l.res, nil
}

// construction times what set-up and recovery are made of: partition
// refinement, index build, the two freezes, and snapshot save/load.
func (l *ladder) construction(ds *dataset, dir string) error {
	g := ds.g
	nodes := float64(g.NumNodes())
	root := l.tr.open("ladder.construction", 0)
	defer l.tr.done(root)

	l.stage("partition.refine", root, func() { partition.CoarsestStable(g, partition.ByLabel(g)) })
	l.stage("partition.kbisim_levels", root, func() { partition.KBisimLevels(g, akK) })
	var idx *oneindex.Index
	l.stage("oneindex.build", root, func() { idx = oneindex.Build(g) })
	var data *graph.Frozen
	l.stage("graph.freeze", root, func() { data = g.Freeze() })
	var snap *oneindex.Snapshot
	l.stage("oneindex.freeze", root, func() { snap = idx.Freeze(data) })
	l.us("partition.refine_us", "partition.refine")
	l.us("partition.kbisim_levels_us", "partition.kbisim_levels")
	l.us("oneindex.build_us", "oneindex.build")
	l.us("graph.freeze_us", "graph.freeze")
	l.us("oneindex.freeze_us", "oneindex.freeze")

	dense, _ := snap.ExtentBytes()
	l.set("extent.dense_bytes_per_node", float64(dense)/nodes, "B/node", 1)
	idx.SetSnapshotCodec(extent.Compressed)
	cd, ce := idx.Freeze(data).ExtentBytes()
	idx.SetSnapshotCodec(extent.Dense)
	l.set("extent.compressed_bytes_per_node", float64(cd+ce)/nodes, "B/node", 1)

	// Encode cost on the extents where the codec matters: the largest.
	inodes := idx.INodes()
	sort.Slice(inodes, func(i, j int) bool {
		if a, b := idx.ExtentSize(inodes[i]), idx.ExtentSize(inodes[j]); a != b {
			return a > b
		}
		return inodes[i] < inodes[j]
	})
	if len(inodes) > ladderExprs {
		inodes = inodes[:ladderExprs]
	}
	for _, I := range inodes {
		ids := snap.Extent(I)
		l.stage("extent.encode", root, func() { extent.FromSorted(ids, extent.Compressed) })
	}
	l.us("extent.encode_us", "extent.encode")

	file := filepath.Join(dir, "ladder-snap.sx")
	var saveErr error
	l.stage("persist.save", root, func() {
		var f *os.File
		if f, saveErr = os.Create(file); saveErr != nil {
			return
		}
		if saveErr = persist.SaveSnapshotCompressed(f, snap); saveErr != nil {
			f.Close()
			return
		}
		saveErr = f.Close()
	})
	if saveErr != nil {
		return fmt.Errorf("ladder: persist.save: %w", saveErr)
	}
	fi, err := os.Stat(file)
	if err != nil {
		return err
	}
	var loadErr error
	l.stage("persist.load", root, func() {
		var f *os.File
		if f, loadErr = os.Open(file); loadErr != nil {
			return
		}
		defer f.Close()
		_, loadErr = persist.LoadDatabaseAuto(f)
	})
	if loadErr != nil {
		return fmt.Errorf("ladder: persist.load: %w", loadErr)
	}
	l.us("persist.save_us", "persist.save")
	l.us("persist.load_us", "persist.load")
	l.set("persist.bytes_per_node", float64(fi.Size())/nodes, "B/node", 1)
	return nil
}

// store is the durable store the upper rungs run on, and how to reopen it.
type store struct {
	db   *structix.DB
	dir  string
	opts structix.Options
}

// writeLadder is the bottom of the write ladder and the rung above it,
// climbed together: the same commit goes stage by stage through the
// bench's own index, journal and snapshot, and then whole through
// DB.ApplyBatch on a durable store of the same graph. Alternating the two
// inside one loop puts both under the same heap and collector state —
// measured one after the other, whichever loop a collection cycle falls
// into looks a fifth slower than the other.
//
// It returns the snapshot the staged commits leave (for the read ladder)
// and the store (for the rungs above).
func (l *ladder) writeLadder(ds *dataset, batches [][]graph.EdgeOp, dir string) (*oneindex.Index, *oneindex.Snapshot, *qcache.Cache, *store, error) {
	fail := func(err error) (*oneindex.Index, *oneindex.Snapshot, *qcache.Cache, *store, error) {
		return nil, nil, nil, nil, fmt.Errorf("ladder: %w", err)
	}
	g := ds.g.Clone()
	idx := oneindex.Build(g)
	snap := idx.Freeze(g.Freeze())
	log, err := wal.Open(filepath.Join(dir, "ladder-wal"), wal.Options{Policy: wal.SyncWindow})
	if err != nil {
		return fail(err)
	}
	defer log.Close()
	cache := qcache.New(0)
	cache.Advance(snap, nil, true)

	st := &store{dir: filepath.Join(dir, "ladder-store"), opts: structix.Options{
		Sync:      structix.SyncWindow,
		Bootstrap: func() (*structix.Database, error) { return &structix.Database{Graph: ds.g.Clone()}, nil },
	}}
	if st.db, err = structix.Open(st.dir, st.opts); err != nil {
		return fail(err)
	}

	// One untimed pass on both first: the first commits on a fresh index
	// grow its scratch and free-lists. Allocation is measured here and not
	// in the timed passes, because reading the counters stops the world.
	var rebuildBytes, patchBytes []float64
	for _, ops := range batches {
		if err := idx.ApplyBatch(ops); err != nil {
			return fail(err)
		}
		var data *graph.Frozen
		rebuildBytes = append(rebuildBytes, allocBytes(func() { data = snap.Data().Rebuild(g, touchedOf(ops)) }))
		patchBytes = append(patchBytes, allocBytes(func() { snap = idx.PatchSnapshot(snap, data) }))
		if err := st.db.ApplyBatch(ops); err != nil {
			return fail(err)
		}
	}
	cache.Advance(snap, nil, true)
	runtime.GC()

	// Four timed passes: 128 commits each way.
	const passes = 4
	dirty, appended := 0, 0
	for pass := 0; pass < passes; pass++ {
		for _, ops := range batches {
			var err error
			root := l.tr.open("write.stages", 0)
			l.stage("graph.validate", root, func() { err = g.ValidateOps(ops) })
			if err == nil {
				l.stage("oneindex.apply_batch", root, func() { err = idx.ApplyBatch(ops) })
			}
			if err == nil {
				l.stage("wal.append", root, func() { _, err = log.AppendEdges(ops) })
			}
			if err == nil {
				l.stage("wal.sync", root, func() { err = log.Sync() })
			}
			if err != nil {
				return fail(err)
			}
			appended++
			touched := touchedOf(ops)
			var data *graph.Frozen
			l.stage("graph.rebuild", root, func() { data = snap.Data().Rebuild(g, touched) })
			l.stage("oneindex.patch_snapshot", root, func() { snap = idx.PatchSnapshot(snap, data) })
			changed, ok := snap.Changed()
			slots := make([]int32, len(changed))
			for j, c := range changed {
				slots[j] = int32(c)
			}
			dirty += len(changed)
			l.stage("qcache.advance", root, func() { cache.Advance(snap, slots, !ok) })
			l.tr.done(root)

			l.stage("structix.commit", 0, func() { err = st.db.ApplyBatch(ops) })
			if err != nil {
				return fail(err)
			}
		}
	}
	n := passes * len(batches)
	l.us("graph.validate_us", "graph.validate")
	l.us("oneindex.apply_batch_us", "oneindex.apply_batch")
	l.us("wal.append_us", "wal.append")
	l.us("wal.sync_us", "wal.sync")
	l.us("graph.rebuild_us", "graph.rebuild")
	l.us("oneindex.patch_snapshot_us", "oneindex.patch_snapshot")
	l.us("qcache.advance_us", "qcache.advance")
	l.set("graph.rebuild_bytes", median(rebuildBytes), "B", len(rebuildBytes))
	l.set("oneindex.patch_snapshot_bytes", median(patchBytes), "B", len(patchBytes))
	l.set("oneindex.dirty_inodes_per_commit", float64(dirty)/float64(n), "count", n)

	l.us("structix.commit_us", "structix.commit")
	l.set("bench.trace_overhead_frac", spanCostNs()*spansPerCommit/l.mean("structix.commit"), "ratio", spanCalibration)
	// Means, not medians: medians of skewed stages do not add up to the
	// median of their sum, means do.
	var parts float64
	for _, span := range []string{"oneindex.apply_batch", "wal.append", "wal.sync", "graph.rebuild", "oneindex.patch_snapshot"} {
		parts += l.mean(span)
	}
	l.set("structix.commit_unattributed_frac", 1-parts/l.mean("structix.commit"), "ratio", n)

	ws := log.Stats()
	l.set("wal.bytes_per_record", float64(ws.Bytes)/float64(ws.Appends), "B", int(ws.Appends))
	replayed := 0
	l.stage("wal.replay", 0, func() {
		err = log.Replay(1, func(*wal.Record) error { replayed++; return nil })
	})
	if err != nil || replayed != appended {
		return fail(fmt.Errorf("replayed %d of %d records: %v", replayed, appended, err))
	}
	l.set("wal.replay_us_per_record", l.p50("wal.replay")/float64(replayed), "us", replayed)
	return idx, snap, cache, st, nil
}

// nodeProbes times node insert and delete on the live index, and closes
// with the paper's quality ratio after everything the ladder did to it.
// It runs after the read ladder: it leaves the snapshot stale.
func (l *ladder) nodeProbes(ds *dataset, idx *oneindex.Index) error {
	bidder := idx.Graph().Labels().Intern("bidder")
	added := make([]graph.NodeID, 0, ladderNodes)
	root := l.tr.open("oneindex.nodes", 0)
	defer l.tr.done(root)
	for i := 0; i < ladderNodes; i++ {
		var v graph.NodeID
		var err error
		l.stage("oneindex.addnode", root, func() { v, err = idx.InsertNode(bidder, ds.auctions[i%len(ds.auctions)], graph.Tree) })
		if err != nil {
			return fmt.Errorf("ladder: InsertNode: %w", err)
		}
		added = append(added, v)
	}
	for _, v := range added {
		var err error
		l.stage("oneindex.delnode", root, func() { err = idx.DeleteNode(v) })
		if err != nil {
			return fmt.Errorf("ladder: DeleteNode: %w", err)
		}
	}
	l.us("oneindex.addnode_us", "oneindex.addnode")
	l.us("oneindex.delnode_us", "oneindex.delnode")
	l.set("oneindex.quality_ratio", float64(idx.Size())/float64(idx.MinimumSize()), "ratio", 1)
	return nil
}

// readStages is the read ladder below the server: parse, compile, cache
// miss, evaluation with its footprint, the union kernel alone on the
// result's extents, cache put and cache hit. It returns the stages of one
// expression as a function — the rung above calls it right before it
// hands the same expression to the server, so both see the same heap and
// collector state — and a function that publishes the metrics.
func (l *ladder) readStages(idx *oneindex.Index, snap *oneindex.Snapshot, cache *qcache.Cache) (one func(e string) error, publish func()) {
	var sc query.Scratch
	var kw extent.KWay
	var prev []graph.NodeID
	var dst []graph.NodeID
	n, footprintTotal, resultTotal, dfaTotal, unionIDs := 0, 0, 0, 0, 0
	var unionNs int64
	one = func(e string) error {
		root := l.tr.open("read.stages", 0)
		defer l.tr.done(root)
		var p *query.Path
		var c *query.Compiled
		var err error
		l.stage("query.parse", root, func() { p, err = query.Parse(e) })
		if err != nil {
			return fmt.Errorf("ladder: %s: %w", e, err)
		}
		l.stage("query.compile", root, func() { c, err = query.Compile(query.OrderPredicates(p)) })
		if err != nil {
			return fmt.Errorf("ladder: %s: %w", e, err)
		}
		key := c.Path().String()
		l.stage("qcache.get_miss", root, func() { cache.Get(key, snap) })
		var nodes []graph.NodeID
		var footprint []int32
		var precise bool
		l.stage(exprClass(e), root, func() { nodes, footprint, precise, err = c.EvalOneSnapshotFootprint(context.Background(), &sc, snap) })
		if err != nil {
			return fmt.Errorf("ladder: %s: %w", e, err)
		}
		if len(nodes) == 0 {
			return fmt.Errorf("ladder: %s has an empty answer; the pool is built from witnessed paths", e)
		}
		l.stage("qcache.put", root, func() { cache.Put(key, snap, nodes, footprint, precise) })
		hit := false
		l.stage("qcache.get_hit", root, func() { _, hit = cache.Get(key, snap) })
		if !hit {
			return fmt.Errorf("ladder: %s: cache miss right after put", e)
		}
		// The kernels alone: the union of the extents whose union is the
		// answer (the inodes of the result), and the intersection of this
		// answer with the previous one.
		var views []extent.View
		seen := make(map[oneindex.INodeID]bool)
		for _, v := range nodes {
			if I := idx.INodeOf(v); !seen[I] {
				seen[I] = true
				views = append(views, snap.ExtentView(I))
			}
		}
		id := l.stage("extent.union", root, func() { dst = extent.UnionInto(dst[:0], &kw, views) })
		if len(dst) != len(nodes) {
			return fmt.Errorf("ladder: %s: union of the result's extents has %d ids, the answer %d", e, len(dst), len(nodes))
		}
		unionNs += l.tr.durationNs(id)
		unionIDs += len(dst)
		if prev != nil {
			a, b := extent.FromSorted(prev, extent.Dense), extent.FromSorted(nodes, extent.Dense)
			l.stage("extent.intersect", root, func() { dst = extent.IntersectInto(dst[:0], &kw, a, b) })
		}
		prev = nodes
		_, dfa := c.States()
		dfaTotal += dfa
		footprintTotal += len(footprint)
		resultTotal += len(nodes)
		n++
		return nil
	}
	publish = func() {
		l.us("query.parse_us", "query.parse")
		l.us("query.compile_us", "query.compile")
		l.us("query.eval_child_us", "query.eval_child")
		l.us("query.eval_desc_us", "query.eval_desc")
		l.us("query.eval_wild_us", "query.eval_wild")
		l.set("query.footprint_per_result", float64(footprintTotal)/float64(resultTotal), "ratio", n)
		l.set("query.dfa_states", float64(dfaTotal)/float64(n), "count", n)
		l.us("extent.union_us", "extent.union")
		l.set("extent.union_ids_per_us", float64(unionIDs)/(float64(unionNs)/1e3), "1/us", n)
		l.us("extent.intersect_us", "extent.intersect")
		l.us("qcache.get_hit_us", "qcache.get_hit")
		l.us("qcache.put_us", "qcache.put")
	}
	return one, publish
}

// akStages keeps a baseline for the A(k) family (k=3), which nothing
// serves yet: build, batch maintenance, snapshot patching, quality.
func (l *ladder) akStages(ds *dataset, batches [][]graph.EdgeOp) error {
	g := ds.g.Clone()
	var ak *akindex.Index
	l.stage("akindex.build", 0, func() { ak = akindex.Build(g, akK) })
	snap := ak.Freeze(g.Freeze())
	for _, ops := range batches {
		var err error
		root := l.tr.open("akindex.stages", 0)
		l.stage("akindex.apply_batch", root, func() { err = ak.ApplyBatch(ops) })
		if err != nil {
			return fmt.Errorf("ladder: akindex.ApplyBatch: %w", err)
		}
		data := snap.Data().Rebuild(g, touchedOf(ops))
		l.stage("akindex.patch_snapshot", root, func() { snap = ak.PatchSnapshot(snap, data) })
		l.tr.done(root)
	}
	l.us("akindex.build_us", "akindex.build")
	l.us("akindex.apply_batch_us", "akindex.apply_batch")
	l.us("akindex.patch_snapshot_us", "akindex.patch_snapshot")
	l.set("akindex.quality_ratio", float64(ak.Size())/float64(ak.MinimumSize()), "ratio", 1)
	return nil
}

// rungs climbs on from the whole commit: node scripts through the same
// store, a reopen, then the HTTP handler called directly and the client
// over loopback.
func (l *ladder) rungs(ctx context.Context, ds *dataset, st *store, batches [][]graph.EdgeOp, exprs []string, readStages func(string) error) error {
	db := st.db
	defer func() { db.Close() }()
	commit := l.p50("structix.commit")
	var err error

	var groups [][]graph.NodeID
	for i := 0; i < ladderScripts; i++ {
		ops := addNodeOps(ds.auctions[i%len(ds.auctions)])
		var res structix.OpResult
		var err error
		l.stage("structix.script_commit", 0, func() { res, err = db.ApplyScript(ops) })
		if err != nil {
			return fmt.Errorf("ladder: DB.ApplyScript: %w", err)
		}
		groups = append(groups, res.NewNodes)
	}
	for _, ids := range groups {
		ops := delNodeOps(ids)
		var err error
		l.stage("structix.script_commit", 0, func() { _, err = db.ApplyScript(ops) })
		if err != nil {
			return fmt.Errorf("ladder: DB.ApplyScript: %w", err)
		}
	}
	l.us("structix.script_commit_us", "structix.script_commit")

	// Reopen: Close seals a snapshot, so Open is a snapshot load plus an
	// empty journal tail — the floor of recover_s.
	if err := db.Close(); err != nil {
		return fmt.Errorf("ladder: DB.Close: %w", err)
	}
	l.stage("structix.open", 0, func() { db, err = structix.Open(st.dir, st.opts) })
	if err != nil {
		return fmt.Errorf("ladder: reopen: %w", err)
	}
	l.us("structix.open_us", "structix.open")

	// The handler, called directly: no socket, no client.
	srv := server.New(db, server.Config{})
	h := srv.Handler()
	post := func(path string, body any) (*httptest.ResponseRecorder, *http.Request, error) {
		raw, err := json.Marshal(body)
		if err != nil {
			return nil, nil, err
		}
		return httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, path, bytes.NewReader(raw)), nil
	}
	serve := func(span, path string, body any) error {
		w, req, err := post(path, body)
		if err != nil {
			return err
		}
		l.stage(span, 0, func() { h.ServeHTTP(w, req) })
		if w.Code != http.StatusOK {
			return fmt.Errorf("ladder: %s: http %d: %s", span, w.Code, w.Body.String())
		}
		return nil
	}
	for _, span := range []string{"server.update_handler.warm", "server.update_handler"} {
		for _, ops := range batches {
			if err := serve(span, "/v1/update", server.UpdateRequest{Ops: scriptOps(ops)}); err != nil {
				return err
			}
		}
	}
	runtime.GC()
	for _, e := range exprs {
		if err := readStages(e); err != nil {
			return err
		}
		q := server.QueryRequest{Expr: e, Limit: readLimit}
		// First sight of the expression: parse, compile, miss, evaluate, put.
		if err := serve("server.query_handler_first", "/v1/query", q); err != nil {
			return err
		}
		if err := serve("server.query_handler", "/v1/query", q); err != nil {
			return err
		}
	}
	l.us("server.update_handler_us", "server.update_handler")
	l.us("server.query_handler_us", "server.query_handler")
	l.set("server.window_wait_us", l.p50("server.update_handler")-commit, "us", len(batches))
	// The first-sight handler against the stages it is made of. Queries
	// differ by orders of magnitude, so totals over the same expressions
	// are compared, not medians.
	var readParts int64
	for _, span := range []string{"query.parse", "query.compile", "qcache.get_miss", "query.eval_child", "query.eval_desc", "query.eval_wild", "qcache.put"} {
		readParts += l.total(span)
	}
	l.set("server.query_unattributed_frac", 1-float64(readParts)/float64(l.total("server.query_handler_first")), "ratio", len(exprs))

	// The client, over loopback.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("ladder: %w", err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	cli := client.NewWithHTTPClient("http://"+ln.Addr().String(), oneConnClient())
	var rungErr error
	for _, span := range []string{"client.update.warm", "client.update"} {
		for _, ops := range batches {
			if rungErr != nil {
				break
			}
			sops := scriptOps(ops)
			l.stage(span, 0, func() { _, rungErr = cli.Update(ctx, sops) })
		}
	}
	for _, e := range exprs {
		// The commits above evicted what they touched: put the answer back,
		// then time the hit — the same path server.query_handler timed.
		for _, span := range []string{"client.query_rtt.fill", "client.query_rtt"} {
			if rungErr != nil {
				break
			}
			l.stage(span, 0, func() { _, rungErr = cli.QueryLimit(ctx, e, readLimit) })
		}
	}
	shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	shutErr := srv.Shutdown(shCtx)
	cancel()
	if err := <-served; !errors.Is(err, http.ErrServerClosed) && rungErr == nil {
		rungErr = err
	}
	if rungErr != nil {
		return fmt.Errorf("ladder: client rung: %w", rungErr)
	}
	if shutErr != nil {
		return fmt.Errorf("ladder: shutdown: %w", shutErr)
	}
	l.us("client.query_rtt_us", "client.query_rtt")
	l.set("client.wire_overhead_us", l.p50("client.query_rtt")-l.p50("server.query_handler"), "us", len(exprs))
	return nil
}

// shardProbes times the router arithmetic at N=4. The served store is
// N=1, where the server skips routing altogether; these are what a
// sharded deployment adds per request.
func (l *ladder) shardProbes() {
	const n = 4
	m := shard.NewMap(shard.NewRouter(n), make([]graph.NodeID, n))
	ops := make([]graph.EdgeOp, batchOps)
	secs := make([][]graph.NodeID, n)
	for s := range secs {
		secs[s] = make([]graph.NodeID, readLimit)
		for i := range secs[s] {
			secs[s][i] = m.ToGlobal(s, graph.NodeID(i+1))
		}
	}
	var dst []graph.NodeID
	for it := 0; it < 2*ladderBatches; it++ {
		for i := range ops {
			s := (it + i) % n
			ops[i] = graph.DeleteOp(m.ToGlobal(s, graph.NodeID(2*i+1)), m.ToGlobal(s, graph.NodeID(2*i+2)))
		}
		root := l.tr.open("shard.probes", 0)
		l.stage("shard.route", root, func() { m.RouteEdge(ops[0].U, ops[0].V) })
		l.stage("shard.split", root, func() { m.SplitEdges(ops) })
		l.stage("shard.merge", root, func() { dst = structix.MergeShardResults(dst, secs) })
		l.tr.done(root)
	}
	l.us("shard.route_us", "shard.route")
	l.us("shard.split_us", "shard.split")
	l.us("shard.merge_us", "shard.merge")
}
