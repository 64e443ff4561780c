package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"slices"
	"time"

	"structix/internal/datagen"
	"structix/internal/extent"
	"structix/internal/graph"
	"structix/internal/oneindex"
	"structix/internal/query"
)

// The extent-storage scale experiment (BENCH_scale.json): what the
// compressed extent codec buys — and costs — at a dataset well past the
// paper's 167k-dnode instance. One XMark graph at Factor× the paper's
// size is generated, one 1-index is built, and the index is frozen once
// per codec; the committed result reports resident extent bytes/node,
// freeze time, and compiled-path query latency per codec, plus the
// warm single-edge maintenance allocations that must stay at zero (the
// live index is dense under every codec, so compression may not tax the
// write path). Every compressed-codec query result is cross-checked
// against the dense one; a mismatch panics — a benchmark must never
// bless a codec bug.

// ScaleConfig drives RunScale.
type ScaleConfig struct {
	// Factor multiplies the paper's XMark instance (datagen.XMarkFactor);
	// the committed run uses 50 (~8.4M dnodes).
	Factor    int
	Cyclicity float64
	Seed      int64
	// Exprs is the compiled-path query set timed per codec.
	Exprs []string
	// Reps is the per-expression repetition count.
	Reps int
	// EdgeIters is the warm insert+delete pair count for the maintenance
	// allocation gate.
	EdgeIters int
}

// DefaultScaleConfig mirrors the committed benchmark at the given factor.
func DefaultScaleConfig(factor int, seed int64) ScaleConfig {
	return ScaleConfig{
		Factor: factor,
		// Cyclicity 0 matches the paper's acyclic XMark setting (Theorem 1
		// territory): the 1-index stays coarse, extents stay long, and the
		// codec comparison measures compression rather than fragmentation.
		Cyclicity: 0,
		Seed:      seed,
		Exprs: []string{
			"/site/people/person",
			"/site/people/person/name",
			"//person/name",
			"//open_auction/bidder/increase",
			"//item/incategory/category/name",
			"/site/*/person/name",
		},
		Reps:      9,
		EdgeIters: 2000,
	}
}

// ScaleExprStats is one expression's compiled-path latency under one codec.
type ScaleExprStats struct {
	Expr    string `json:"expr"`
	Results int    `json:"results"`
	P50Ns   int64  `json:"p50_ns"`
	P99Ns   int64  `json:"p99_ns"`
}

// ScaleCodecStats is one codec's snapshot measurements.
type ScaleCodecStats struct {
	Codec string `json:"codec"`
	// FreezeNs is the full Freeze wall clock under this codec.
	FreezeNs int64 `json:"freeze_ns"`
	// Resident extent storage by representation (see Snapshot.ExtentBytes):
	// under the compressed codec DenseBytes counts per-extent density
	// fallbacks that stayed dense.
	ExtentDenseBytes   int64 `json:"extent_dense_bytes"`
	ExtentEncodedBytes int64 `json:"extent_encoded_bytes"`
	// BytesPerNode is total extent bytes / dnodes — the headline number.
	BytesPerNode float64          `json:"bytes_per_node"`
	Exprs        []ScaleExprStats `json:"exprs"`
	// WarmQueryAllocs is allocations per warm compiled evaluation of the
	// largest expression (buffer and scratch reused).
	WarmQueryAllocs float64 `json:"warm_query_allocs"`
}

// ScaleResult is the full experiment (BENCH_scale.json).
type ScaleResult struct {
	Dataset string `json:"dataset"`
	Factor  int    `json:"factor"`
	Nodes   int    `json:"nodes"`
	Edges   int    `json:"edges"`
	INodes  int    `json:"inodes"`
	Reps    int    `json:"reps"`
	// BuildNs is the from-scratch 1-index construction (codec-independent).
	BuildNs int64 `json:"build_ns"`

	Dense      ScaleCodecStats `json:"dense"`
	Compressed ScaleCodecStats `json:"compressed"`

	// CompressionRatio is dense bytes/node over compressed bytes/node
	// (>1 = compressed smaller; the acceptance bar is ≥3).
	CompressionRatio float64 `json:"compression_ratio"`
	// QueryP50Ratio aggregates compressed p50 / dense p50 across the
	// expression set (total of p50s; >1 = compressed slower; the
	// acceptance bar is ≤1.3). MaxQueryP50Ratio is the worst expression.
	QueryP50Ratio    float64 `json:"query_p50_ratio"`
	MaxQueryP50Ratio float64 `json:"max_query_p50_ratio"`

	// Warm single-edge maintenance on the live (always-dense) index —
	// must stay allocation-free regardless of the snapshot codec.
	EdgeAllocs float64 `json:"edge_allocs"`
	EdgeNs     int64   `json:"edge_ns"`
}

// RunScale generates the Factor× XMark graph, builds its 1-index, and
// measures a full freeze plus the compiled query set under each codec.
func RunScale(cfg ScaleConfig) ScaleResult {
	g := datagen.XMark(datagen.XMarkFactor(cfg.Factor, cfg.Cyclicity, cfg.Seed))
	res := ScaleResult{
		Dataset: fmt.Sprintf("xmark-f%d", cfg.Factor),
		Factor:  cfg.Factor,
		Nodes:   g.NumNodes(),
		Edges:   g.NumEdges(),
		Reps:    cfg.Reps,
	}

	start := time.Now()
	one := oneindex.Build(g)
	res.BuildNs = time.Since(start).Nanoseconds()
	res.INodes = one.Size()
	frozen := one.Graph().Freeze()

	// Dense first: its results are the reference the compressed run is
	// checked against.
	var reference [][]graph.NodeID
	res.Dense, reference = runScaleCodec(one, frozen, extent.Dense, cfg, nil)
	res.Compressed, _ = runScaleCodec(one, frozen, extent.Compressed, cfg, reference)

	dn := float64(res.Nodes)
	res.Dense.BytesPerNode = float64(res.Dense.ExtentDenseBytes+res.Dense.ExtentEncodedBytes) / dn
	res.Compressed.BytesPerNode = float64(res.Compressed.ExtentDenseBytes+res.Compressed.ExtentEncodedBytes) / dn
	if res.Compressed.BytesPerNode > 0 {
		res.CompressionRatio = res.Dense.BytesPerNode / res.Compressed.BytesPerNode
	}
	var dTot, cTot int64
	for i := range res.Dense.Exprs {
		d, c := res.Dense.Exprs[i], res.Compressed.Exprs[i]
		dTot += d.P50Ns
		cTot += c.P50Ns
		if d.P50Ns > 0 {
			if r := float64(c.P50Ns) / float64(d.P50Ns); r > res.MaxQueryP50Ratio {
				res.MaxQueryP50Ratio = r
			}
		}
	}
	if dTot > 0 {
		res.QueryP50Ratio = float64(cTot) / float64(dTot)
	}

	// Maintenance gate: warm single-edge insert+delete on the live index.
	// The edge is made absent through the index itself so graph and index
	// stay in sync.
	idref := g.EdgeList(graph.IDRef)
	u, v := idref[0][0], idref[0][1]
	if err := one.DeleteEdge(u, v); err != nil {
		panic("experiments: scale edge pool setup failed: " + err.Error())
	}
	edgePair := func() {
		if err := one.InsertEdge(u, v, graph.IDRef); err != nil {
			panic("experiments: scale edge insert failed: " + err.Error())
		}
		if err := one.DeleteEdge(u, v); err != nil {
			panic("experiments: scale edge delete failed: " + err.Error())
		}
	}
	edgePair() // warm-up
	var ns int64
	res.EdgeAllocs, _, ns = measureAllocs(cfg.EdgeIters, edgePair)
	res.EdgeNs = ns / 2
	res.EdgeAllocs /= 2
	return res
}

// runScaleCodec freezes the index under one codec and times the compiled
// query set against the resulting snapshot. When reference is non-nil the
// results must match it element-for-element; otherwise the results are
// returned for the next codec to check against.
func runScaleCodec(one *oneindex.Index, frozen *graph.Frozen, c extent.Codec, cfg ScaleConfig, reference [][]graph.NodeID) (ScaleCodecStats, [][]graph.NodeID) {
	st := ScaleCodecStats{Codec: c.String()}
	one.SetSnapshotCodec(c)
	start := time.Now()
	snap := one.Freeze(frozen)
	st.FreezeNs = time.Since(start).Nanoseconds()
	st.ExtentDenseBytes, st.ExtentEncodedBytes = snap.ExtentBytes()

	var sc query.Scratch
	var buf []graph.NodeID
	results := make([][]graph.NodeID, len(cfg.Exprs))
	largest := 0
	var largestC *query.Compiled
	for ei, expr := range cfg.Exprs {
		cq := query.MustCompile(query.MustParse(expr))
		times := make([]int64, cfg.Reps)
		for i := range times {
			t0 := time.Now()
			buf, _ = cq.Eval(nil, buf, &sc, snap)
			times[i] = time.Since(t0).Nanoseconds()
		}
		if reference != nil && !slices.Equal(buf, reference[ei]) {
			panic(fmt.Sprintf("experiments: scale: %q: %s codec returned %d results, dense %d (or contents differ)",
				expr, c, len(buf), len(reference[ei])))
		}
		results[ei] = slices.Clone(buf)
		r := ScaleExprStats{Expr: expr, Results: len(buf)}
		r.P50Ns, r.P99Ns = percentiles(times)
		st.Exprs = append(st.Exprs, r)
		if len(buf) >= largest {
			largest = len(buf)
			largestC = cq
		}
	}
	if largestC != nil {
		st.WarmQueryAllocs, _, _ = measureAllocs(20, func() {
			buf, _ = largestC.Eval(nil, buf, &sc, snap)
		})
	}
	return st, results
}

// measureAllocs runs fn iters times on a single goroutine and returns the
// per-iteration allocation count, allocated bytes, and wall clock. The
// numbers include everything fn does (they are a ceiling, not a floor, on
// the code path's own allocations — the GC may add arena growth).
func measureAllocs(iters int, fn func()) (allocs, bytes float64, ns int64) {
	if iters < 1 {
		iters = 1
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < iters; i++ {
		fn()
	}
	elapsed := time.Since(start).Nanoseconds()
	runtime.ReadMemStats(&after)
	n := float64(iters)
	return float64(after.Mallocs-before.Mallocs) / n,
		float64(after.TotalAlloc-before.TotalAlloc) / n,
		elapsed / int64(iters)
}

// ReportScale prints the experiment as tables.
func ReportScale(w io.Writer, res ScaleResult) {
	fmt.Fprintf(w, "\nExtent-storage scale experiment on %s (%d dnodes, %d dedges, %d inodes; %d reps)\n",
		res.Dataset, res.Nodes, res.Edges, res.INodes, res.Reps)
	fmt.Fprintf(w, "1-index build: %.1fs\n", float64(res.BuildNs)/1e9)
	for _, st := range []ScaleCodecStats{res.Dense, res.Compressed} {
		fmt.Fprintf(w, "[%s] freeze %.0fms, extents %.1fMB dense + %.1fMB encoded = %.2f B/node, warm query %.1f allocs\n",
			st.Codec, float64(st.FreezeNs)/1e6,
			float64(st.ExtentDenseBytes)/1e6, float64(st.ExtentEncodedBytes)/1e6,
			st.BytesPerNode, st.WarmQueryAllocs)
		for _, r := range st.Exprs {
			fmt.Fprintf(w, "  %-36s %8d results  p50 %8.2fms  p99 %8.2fms\n",
				r.Expr, r.Results, float64(r.P50Ns)/1e6, float64(r.P99Ns)/1e6)
		}
	}
	fmt.Fprintf(w, "compression %.2fx, query p50 ratio %.2fx (worst expr %.2fx), edge maintenance %.1f allocs/op (%.1fµs)\n",
		res.CompressionRatio, res.QueryP50Ratio, res.MaxQueryP50Ratio,
		res.EdgeAllocs, float64(res.EdgeNs)/1e3)
}

// WriteScaleJSON emits the result as indented JSON (BENCH_scale.json).
func WriteScaleJSON(w io.Writer, res ScaleResult) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}
