// Command xsibench regenerates the paper's evaluation: every figure and
// table of §7, on synthetic datasets shaped like the originals.
//
// Usage:
//
//	xsibench -exp all                      # everything, reduced scale
//	xsibench -exp fig9                     # 1-index quality on IMDB
//	xsibench -exp fig10                    # 1-index quality on XMark(c)
//	xsibench -exp fig11                    # 1-index running times
//	xsibench -exp fig12                    # subgraph additions
//	xsibench -exp fig13                    # A(k) experiments (also table1/2)
//	xsibench -exp table3                   # A(k) storage
//	xsibench -exp queryperf                # query-evaluation motivation
//	xsibench -exp intermediate             # §5.1 transient-growth claim
//	xsibench -exp dk                       # adaptive D(k) extension (§8)
//	xsibench -exp skew                     # hot-spot robustness probe
//	xsibench -exp batch                    # ApplyBatch vs per-edge updates
//	xsibench -exp memlayout                # flat-layout build/batch/alloc costs
//	xsibench -exp serve                    # HTTP serving: 90/10 mix over loopback
//	xsibench -exp wal                      # journal fsync policies + crash-recovery time
//	xsibench -exp shard                    # sharded write scale-out + 90/10 mix
//	xsibench -exp repl                     # read replicas: QPS scale-out + staleness
//	xsibench -exp scale -factor 50         # extent codecs at 50x the paper's dataset
//
// -scale divides the paper's dataset sizes (default 16; 1 approximates the
// full 167k/272k-node instances and takes correspondingly longer). -pairs
// and -subgraphs override the update counts; -csv DIR additionally writes
// the quality curves as CSV for plotting; -json FILE writes the batch,
// memlayout, serve, wal, shard, repl or scale experiment's machine-readable
// result (BENCH_batch.json, BENCH_memlayout.json, … — invoke the
// experiments separately to keep each). -baseline FILE merges a previous
// memlayout JSON as the "before" column so a layout change can be compared
// against the run captured before it. -cpuprofile/-memprofile write pprof
// profiles covering the selected experiment.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"structix/internal/baseline"
	"structix/internal/experiments"
)

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment: all, fig9, fig10, fig11, fig12, fig13, table1, table2, table3, queryperf")
		scale      = flag.Int("scale", 16, "dataset size reduction factor (1 ≈ paper scale)")
		factor     = flag.Int("factor", 50, "dataset size multiplication factor for -exp scale (1 ≈ paper scale)")
		pairs      = flag.Int("pairs", 0, "insert/delete pairs (0 = paper defaults scaled)")
		subgraphs  = flag.Int("subgraphs", 0, "subgraph count for fig12 (0 = paper default scaled)")
		seed       = flag.Int64("seed", 1, "random seed")
		csvDir     = flag.String("csv", "", "also write quality curves as CSV files into this directory")
		jsonPath   = flag.String("json", "", "write the batch/memlayout/serve/wal/shard/repl/scale experiment result as JSON to this file")
		basePath   = flag.String("baseline", "", "previous memlayout JSON to merge as the before column")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile covering the experiment to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile taken after the experiment to this file")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xsibench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "xsibench: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "xsibench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle heap stats before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "xsibench: %v\n", err)
			}
		}()
	}

	r := runner{scale: *scale, factor: *factor, seed: *seed, pairs: *pairs, subgraphs: *subgraphs,
		csvDir: *csvDir, jsonPath: *jsonPath, basePath: *basePath}
	switch *exp {
	case "all":
		r.fig9()
		r.fig10and11()
		r.fig12()
		r.akExperiments()
		r.table3()
		r.queryPerf()
		r.intermediate()
		r.dk()
		r.skew()
		r.batch()
		r.memlayout()
		r.serve()
		r.wal()
		r.shard()
		r.repl()
	case "fig9":
		r.fig9()
	case "fig10", "fig11":
		r.fig10and11()
	case "fig12":
		r.fig12()
	case "fig13", "table1", "table2":
		r.akExperiments()
	case "table3":
		r.table3()
	case "queryperf":
		r.queryPerf()
	case "intermediate":
		r.intermediate()
	case "dk":
		r.dk()
	case "skew":
		r.skew()
	case "batch":
		r.batch()
	case "memlayout":
		r.memlayout()
	case "serve":
		r.serve()
	case "wal":
		r.wal()
	case "shard":
		r.shard()
	case "repl":
		r.repl()
	case "scale":
		r.scaleBench()
	default:
		fmt.Fprintf(os.Stderr, "xsibench: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}

type runner struct {
	scale     int
	factor    int
	seed      int64
	pairs     int
	subgraphs int
	csvDir    string
	jsonPath  string
	basePath  string
}

// writeCSV drops a quality-curve CSV next to the textual report when -csv
// is set.
func (r runner) writeCSV(name string, series ...experiments.QualitySeries) {
	if r.csvDir == "" {
		return
	}
	path := filepath.Join(r.csvDir, name+".csv")
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xsibench: %v\n", err)
		return
	}
	defer f.Close()
	if err := experiments.WriteQualityCSV(f, series...); err != nil {
		fmt.Fprintf(os.Stderr, "xsibench: %v\n", err)
	}
}

// mixedPairs scales the paper's 5000 pairs down with the dataset so the
// pool does not run dry at reduced scale.
func (r runner) mixedPairs() int {
	if r.pairs > 0 {
		return r.pairs
	}
	p := 5000 / r.scale * 4
	if p < 200 {
		p = 200
	}
	if p > 5000 {
		p = 5000
	}
	return p
}

func (r runner) mixedCfg() experiments.MixedConfig {
	cfg := experiments.DefaultMixedConfig(r.seed)
	cfg.Pairs = r.mixedPairs()
	cfg.SampleEvery = 2 * cfg.Pairs / 20
	return cfg
}

func (r runner) fig9() {
	d := experiments.Dataset{Name: "IMDB", IsIMDB: true}
	res := experiments.RunMixed(d.Name, d.Build(r.scale, r.seed), r.mixedCfg())
	experiments.ReportMixed(os.Stdout, res)
	experiments.ReportTimes(os.Stdout, []experiments.MixedResult{res})
	r.writeCSV("fig9_imdb", res.SplitMerge, res.Propagate)
}

func (r runner) fig10and11() {
	var all []experiments.MixedResult
	for _, d := range experiments.StandardDatasets() {
		res := experiments.RunMixed(d.Name, d.Build(r.scale, r.seed), r.mixedCfg())
		experiments.ReportMixed(os.Stdout, res)
		r.writeCSV("fig10_"+csvName(d.Name), res.SplitMerge, res.Propagate)
		all = append(all, res)
	}
	experiments.ReportTimes(os.Stdout, all)
}

func csvName(dataset string) string {
	s := strings.ToLower(dataset)
	s = strings.NewReplacer("(", "_", ")", "", ".", "").Replace(s)
	return s
}

func (r runner) fig12() {
	cfg := experiments.DefaultSubgraphConfig(r.seed)
	if r.subgraphs > 0 {
		cfg.Count = r.subgraphs
	} else {
		cfg.Count = 500 / r.scale * 4
		if cfg.Count < 50 {
			cfg.Count = 50
		}
	}
	cfg.SampleEvery = cfg.Count / 10
	if cfg.SampleEvery == 0 {
		cfg.SampleEvery = 1
	}
	d := experiments.Dataset{Name: "XMark(1)", Cyclicity: 1}
	res := experiments.RunSubgraphAdditions(d.Name, d.Build(r.scale, r.seed), cfg)
	experiments.ReportSubgraph(os.Stdout, res)
	r.writeCSV("fig12_xmark1", res.SplitMerge, res.Propagate, res.Reconstruction)
}

func (r runner) akExperiments() {
	cfg := experiments.AkConfig{
		Ks:         []int{2, 3, 4, 5},
		Pairs:      r.mixedPairs() / 5,
		RemoveFrac: 0.2,
		Threshold:  baseline.DefaultReconstructThreshold,
		Seed:       r.seed,
	}
	if cfg.Pairs < 100 {
		cfg.Pairs = 100
	}
	cfg.SampleEvery = 2 * cfg.Pairs / 10
	byDataset := map[string][]experiments.AkResult{}
	for _, d := range []experiments.Dataset{
		{Name: "XMark", Cyclicity: 1},
		{Name: "IMDB", IsIMDB: true},
	} {
		rs := experiments.RunAk(d.Name, d.Build(r.scale, r.seed), cfg)
		experiments.ReportAkQuality(os.Stdout, rs)
		var series []experiments.QualitySeries
		for _, res := range rs {
			s := res.SimpleNoRecon
			s.Name = fmt.Sprintf("simple k=%d", res.K)
			series = append(series, s)
		}
		r.writeCSV("fig13_"+csvName(d.Name), series...)
		byDataset[d.Name] = rs
	}
	experiments.ReportTable1(os.Stdout, byDataset)
	experiments.ReportTable2(os.Stdout, byDataset)
}

func (r runner) table3() {
	byDataset := map[string][]experiments.StorageResult{}
	for _, d := range []experiments.Dataset{
		{Name: "XMark", Cyclicity: 1},
		{Name: "IMDB", IsIMDB: true},
	} {
		byDataset[d.Name] = experiments.RunStorage(d.Name, d.Build(r.scale, r.seed), []int{2, 3, 4, 5})
	}
	experiments.ReportTable3(os.Stdout, byDataset)
}

func (r runner) intermediate() {
	var rs []experiments.IntermediateResult
	for _, d := range experiments.StandardDatasets() {
		rs = append(rs, experiments.RunIntermediate(d.Name, d.Build(r.scale, r.seed), r.mixedCfg()))
	}
	experiments.ReportIntermediate(os.Stdout, rs)
}

func (r runner) skew() {
	for _, d := range []experiments.Dataset{
		{Name: "XMark(1)", Cyclicity: 1},
		{Name: "IMDB", IsIMDB: true},
	} {
		res := experiments.RunSkew(d.Name, d.Build(r.scale, r.seed), r.mixedPairs()/2, r.seed)
		experiments.ReportSkew(os.Stdout, res)
	}
}

func (r runner) dk() {
	d := experiments.Dataset{Name: "XMark(1)", Cyclicity: 1}
	res := experiments.RunDk(d.Name, d.Build(r.scale, r.seed),
		[]string{"open_auction", "bidder", "personref", "person", "name"},
		[]string{
			"//open_auction/bidder/personref/person/name",
			"/site/open_auctions/open_auction/bidder/personref/person",
		}, 4, 3)
	experiments.ReportDk(os.Stdout, res)
}

func (r runner) queryPerf() {
	d := experiments.Dataset{Name: "XMark(1)", Cyclicity: 1}
	rs := experiments.RunQueryPerf(d.Name, d.Build(r.scale, r.seed), []string{
		"/site/people/person/name",
		"/site/open_auctions/open_auction/itemref/item",
		"//person//watch/open_auction",
		"//item/incategory/category/name",
	}, 3, 5)
	experiments.ReportQueryPerf(os.Stdout, rs)
}

func (r runner) batch() {
	d := experiments.Dataset{Name: "XMark(1)", Cyclicity: 1}
	cfg := experiments.DefaultBatchConfig(r.seed)
	// The N=1000 row needs a pool of ≥1000 absent IDREF edges — roughly
	// 1/5000th of the paper instance's 30k IDREF edges per unit of scale —
	// so build this dataset at a scale that can supply it.
	scale := r.scale
	if scale > 8 {
		scale = 8
	}
	res := experiments.RunBatch(d.Name, d.Build(scale, r.seed), cfg)
	experiments.ReportBatch(os.Stdout, res)
	if r.jsonPath != "" {
		f, err := os.Create(r.jsonPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xsibench: %v\n", err)
			return
		}
		defer f.Close()
		if err := experiments.WriteBatchJSON(f, res); err != nil {
			fmt.Fprintf(os.Stderr, "xsibench: %v\n", err)
		}
	}
}

func (r runner) serve() {
	d := experiments.Dataset{Name: "XMark(1)", Cyclicity: 1}
	cfg := experiments.DefaultServeConfig(r.seed)
	// The writers draw update batches from the absent-IDREF pool; cap the
	// reduction so every worker gets a full slice.
	scale := r.scale
	if scale > 8 {
		scale = 8
	}
	res, err := experiments.RunServe(d.Name, d.Build(scale, r.seed), cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xsibench: serve: %v\n", err)
		os.Exit(1)
	}
	experiments.ReportServe(os.Stdout, res)
	if r.jsonPath != "" {
		f, err := os.Create(r.jsonPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xsibench: %v\n", err)
			return
		}
		defer f.Close()
		if err := experiments.WriteServeJSON(f, res); err != nil {
			fmt.Fprintf(os.Stderr, "xsibench: %v\n", err)
		}
	}
}

func (r runner) wal() {
	d := experiments.Dataset{Name: "XMark(1)", Cyclicity: 1}
	cfg := experiments.DefaultWalConfig(r.seed)
	// The commit workload draws from the absent-IDREF pool like the other
	// write benchmarks; cap the reduction so the batches stay full width.
	scale := r.scale
	if scale > 8 {
		scale = 8
	}
	res, err := experiments.RunWal(d.Name, d.Build(scale, r.seed), cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xsibench: wal: %v\n", err)
		os.Exit(1)
	}
	experiments.ReportWal(os.Stdout, res)
	if r.jsonPath != "" {
		f, err := os.Create(r.jsonPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xsibench: %v\n", err)
			return
		}
		defer f.Close()
		if err := experiments.WriteWalJSON(f, res); err != nil {
			fmt.Fprintf(os.Stderr, "xsibench: %v\n", err)
		}
	}
}

func (r runner) shard() {
	cfg := experiments.DefaultShardConfig(r.seed)
	// The benchmark builds its own forest of reduced XMark instances; at
	// higher -scale reductions shrink each instance rather than the forest,
	// so placement still has enough components to spread.
	if r.scale > 16 {
		cfg.Scale = 2 * r.scale
	}
	res, err := experiments.RunShard(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xsibench: shard: %v\n", err)
		os.Exit(1)
	}
	experiments.ReportShard(os.Stdout, res)
	if r.jsonPath != "" {
		f, err := os.Create(r.jsonPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xsibench: %v\n", err)
			return
		}
		defer f.Close()
		if err := experiments.WriteShardJSON(f, res); err != nil {
			fmt.Fprintf(os.Stderr, "xsibench: %v\n", err)
		}
	}
}

func (r runner) repl() {
	d := experiments.Dataset{Name: "XMark(1)", Cyclicity: 1}
	cfg := experiments.DefaultReplConfig(r.seed)
	// The staleness writers draw from the absent-IDREF pool; cap the
	// reduction so the batches stay full width.
	scale := r.scale
	if scale > 8 {
		scale = 8
	}
	res, err := experiments.RunRepl(d.Name, d.Build(scale, r.seed), cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xsibench: repl: %v\n", err)
		os.Exit(1)
	}
	experiments.ReportRepl(os.Stdout, res)
	if r.jsonPath != "" {
		f, err := os.Create(r.jsonPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xsibench: %v\n", err)
			return
		}
		defer f.Close()
		if err := experiments.WriteReplJSON(f, res); err != nil {
			fmt.Fprintf(os.Stderr, "xsibench: %v\n", err)
		}
	}
}

func (r runner) scaleBench() {
	res := experiments.RunScale(experiments.DefaultScaleConfig(r.factor, r.seed))
	experiments.ReportScale(os.Stdout, res)
	if r.jsonPath != "" {
		f, err := os.Create(r.jsonPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xsibench: %v\n", err)
			return
		}
		defer f.Close()
		if err := experiments.WriteScaleJSON(f, res); err != nil {
			fmt.Fprintf(os.Stderr, "xsibench: %v\n", err)
		}
	}
}

func (r runner) memlayout() {
	d := experiments.Dataset{Name: "XMark(1)", Cyclicity: 1}
	cfg := experiments.DefaultMemLayoutConfig(r.seed)
	// Same pool constraint as the batch experiment: the ApplyBatch rounds
	// need a healthy stock of absent IDREF edges.
	scale := r.scale
	if scale > 8 {
		scale = 8
	}
	res := experiments.RunMemLayout(d.Name, d.Build(scale, r.seed), cfg)
	if r.basePath != "" {
		f, err := os.Open(r.basePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xsibench: %v\n", err)
			os.Exit(1)
		}
		base, err := experiments.ReadMemLayoutJSON(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "xsibench: -baseline %s: %v\n", r.basePath, err)
			os.Exit(1)
		}
		res.AttachBaseline(base.After)
	}
	experiments.ReportMemLayout(os.Stdout, res)
	if r.jsonPath != "" {
		f, err := os.Create(r.jsonPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xsibench: %v\n", err)
			return
		}
		defer f.Close()
		if err := experiments.WriteMemLayoutJSON(f, res); err != nil {
			fmt.Fprintf(os.Stderr, "xsibench: %v\n", err)
		}
	}
}
