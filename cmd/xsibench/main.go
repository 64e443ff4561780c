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
//	xsibench -exp skew                     # hot-spot robustness probe
//	xsibench -exp shard                    # sharded write scale-out + 90/10 mix
//	xsibench -exp repl                     # read replicas: QPS scale-out + staleness
//	xsibench -exp scale -factor 50         # extent codecs at 50x the paper's dataset
//
// The serving, durability, batching and memory-layout measurements live in
// bench/ (see BENCHMARK.json), which drives the shipped xsiserve binary.
//
// -scale divides the paper's dataset sizes (default 16; 1 approximates the
// full 167k/272k-node instances and takes correspondingly longer). -pairs
// and -subgraphs override the update counts; -csv DIR additionally writes
// the quality curves as CSV for plotting; -json FILE writes the shard, repl
// or scale experiment's machine-readable result (BENCH_shard.json, … —
// invoke the experiments separately to keep each). -cpuprofile/-memprofile
// write pprof profiles covering the selected experiment.
package main

import (
	"flag"
	"fmt"
	"io"
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
		exp        = flag.String("exp", "all", expUsage())
		scale      = flag.Int("scale", 16, "dataset size reduction factor (1 ≈ paper scale)")
		factor     = flag.Int("factor", 50, "dataset size multiplication factor for -exp scale (1 ≈ paper scale)")
		pairs      = flag.Int("pairs", 0, "insert/delete pairs (0 = paper defaults scaled)")
		subgraphs  = flag.Int("subgraphs", 0, "subgraph count for fig12 (0 = paper default scaled)")
		seed       = flag.Int64("seed", 1, "random seed")
		csvDir     = flag.String("csv", "", "also write quality curves as CSV files into this directory")
		jsonPath   = flag.String("json", "", "write the shard/repl/scale experiment result as JSON to this file")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile covering the experiment to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile taken after the experiment to this file")
	)
	flag.Parse()

	exps := selectExperiments(*exp)
	if exps == nil {
		fmt.Fprintf(os.Stderr, "xsibench: unknown experiment %q (valid: %s)\n", *exp, strings.Join(expNames(), ", "))
		os.Exit(2)
	}

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
		csvDir: *csvDir, jsonPath: *jsonPath}
	for _, e := range exps {
		e.run(r)
	}
}

// experiment is one -exp value. experimentTable is the only list of them:
// dispatch, -exp all, the flag's usage text and the unknown-name error all
// read it, in this order.
type experiment struct {
	name  string
	inAll bool // run by -exp all; an alias of an earlier row is not
	run   func(runner)
}

var experimentTable = []experiment{
	{"fig9", true, runner.fig9},
	{"fig10", true, runner.fig10and11},
	{"fig11", false, runner.fig10and11},
	{"fig12", true, runner.fig12},
	{"fig13", true, runner.akExperiments},
	{"table1", false, runner.akExperiments},
	{"table2", false, runner.akExperiments},
	{"table3", true, runner.table3},
	{"queryperf", true, runner.queryPerf},
	{"intermediate", true, runner.intermediate},
	{"skew", true, runner.skew},
	{"shard", true, runner.shard},
	{"repl", true, runner.repl},
	// Factor 50 by default: ten minutes and ~8 GB, so only on request.
	{"scale", false, runner.scaleBench},
}

// selectExperiments resolves an -exp value to the rows it runs, nil if the
// name is unknown.
func selectExperiments(name string) []experiment {
	var out []experiment
	for _, e := range experimentTable {
		if e.name == name || (name == "all" && e.inAll) {
			out = append(out, e)
		}
	}
	return out
}

// expNames lists every valid -exp value, "all" first.
func expNames() []string {
	names := []string{"all"}
	for _, e := range experimentTable {
		names = append(names, e.name)
	}
	return names
}

func expUsage() string {
	return "experiment: " + strings.Join(expNames(), ", ")
}

type runner struct {
	scale     int
	factor    int
	seed      int64
	pairs     int
	subgraphs int
	csvDir    string
	jsonPath  string
}

// writeFile creates path and hands it to write. A failure warns on stderr
// and the run still exits 0: the textual report has already been printed.
func writeFile(path string, write func(io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xsibench: %v\n", err)
		return
	}
	defer f.Close()
	if err := write(f); err != nil {
		fmt.Fprintf(os.Stderr, "xsibench: %v\n", err)
	}
}

// writeCSV drops a quality-curve CSV next to the textual report when -csv
// is set.
func (r runner) writeCSV(name string, series ...experiments.QualitySeries) {
	if r.csvDir == "" {
		return
	}
	writeFile(filepath.Join(r.csvDir, name+".csv"), func(w io.Writer) error {
		return experiments.WriteQualityCSV(w, series...)
	})
}

// writeJSON writes an experiment's machine-readable result when -json is
// set.
func (r runner) writeJSON(write func(io.Writer) error) {
	if r.jsonPath != "" {
		writeFile(r.jsonPath, write)
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
	r.writeJSON(func(w io.Writer) error { return experiments.WriteShardJSON(w, res) })
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
	r.writeJSON(func(w io.Writer) error { return experiments.WriteReplJSON(w, res) })
}

func (r runner) scaleBench() {
	res := experiments.RunScale(experiments.DefaultScaleConfig(r.factor, r.seed))
	experiments.ReportScale(os.Stdout, res)
	r.writeJSON(func(w io.Writer) error { return experiments.WriteScaleJSON(w, res) })
}
