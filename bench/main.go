// Command bench is the repository's one benchmark: five workloads against
// the shipped xsiserve binary, a traced in-process layer ladder, and
// correctness checks that fail the run.
//
//	go run ./bench                          # every workload, end to end + traced
//	go run ./bench -workload write_small    # one workload
//	go run ./bench -trace 0                 # end-to-end metrics only (tracing off)
//	go run ./bench -trace 1                 # the traced run only: per-layer metrics
//	go run ./bench -runs 10                 # medians and run-to-run spread over seeds seed..seed+9
//	go run ./bench -diff old.json new.json  # regression verdicts against BENCHMARK.json's bounds
//
// bench/run.sh is the same program behind a hermetic build (build cache
// and temp files inside the checkout); BENCHMARK.json names it as the
// command. See bench/README.md for the workloads, the metrics and how
// they interact.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "run one workload (default: all five)")
		seed     = flag.Int64("seed", 1, "seed for dataset, op pools and expression pools")
		seconds  = flag.Float64("seconds", 10, "measured main window per run, in seconds")
		trace    = flag.String("trace", "both", "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics; both")
		runs     = flag.Int("runs", 1, "runs per workload, run i on seed+i; values become medians with their spread")
		dir      = flag.String("dir", ".bench_build", "working directory: binaries, datasets, server stores, traces")
		out      = flag.String("out", "", "result file (default <dir>/out/result.json)")
		diff     = flag.Bool("diff", false, "compare two result files: bench -diff old.json new.json")
	)
	flag.Parse()
	if *diff {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -diff old.json new.json")
			os.Exit(2)
		}
		os.Exit(runDiff(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if flag.NArg() != 0 || *runs < 1 || *seconds <= 0 || (*trace != "0" && *trace != "1" && *trace != "both") {
		flag.Usage()
		os.Exit(2)
	}
	selected := specs
	if *workload != "" {
		sp, ok := specByName(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
			os.Exit(2)
		}
		selected = []spec{sp}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	code, err := runAll(ctx, selected, *seed, *runs, time.Duration(*seconds*float64(time.Second)), *trace, *dir, *out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	}
	stop()
	os.Exit(code)
}

// perRunDeadline keeps one run of one workload inside the 180 s the
// driver allows a command.
const perRunDeadline = 170 * time.Second

// resultFile is the one schema every mode writes and -diff reads:
// workload → metric → {value, unit, n}.
type resultFile struct {
	Schema    string                     `json:"schema"`
	Env       map[string]any             `json:"env"`
	Seed      int64                      `json:"seed"`
	Runs      int                        `json:"runs"`
	Seconds   float64                    `json:"seconds"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

func runAll(ctx context.Context, selected []spec, seed int64, runs int, window time.Duration, trace, dir, out string) (int, error) {
	root, err := moduleRoot()
	if err != nil {
		return 1, err
	}
	if dir, err = filepath.Abs(dir); err != nil {
		return 1, err
	}
	for _, d := range []string{filepath.Join(dir, "bin"), filepath.Join(dir, "out")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return 1, err
		}
	}
	if out == "" {
		out = filepath.Join(dir, "out", "result.json")
	}
	bin, err := buildServer(ctx, root, dir)
	if err != nil {
		return 1, err
	}

	file := &resultFile{
		Schema: "structix-bench/1", Env: envStamp(root, dir), Seed: seed, Runs: runs,
		Seconds: window.Seconds(), Workloads: make(map[string]*workloadResult),
	}
	code := 0
	for _, sp := range selected {
		var all []*workloadResult
		var runErr error
		for i := 0; i < runs && runErr == nil; i++ {
			cfg := defaultConfig(seed+int64(i), window, dir)
			for _, traced := range []bool{false, true} {
				if (traced && trace == "0") || (!traced && trace == "1") {
					continue
				}
				rctx, cancel := context.WithTimeout(ctx, perRunDeadline)
				res, cliSpans, ladderSpans, err := runWorkload(rctx, cfg, sp, bin, traced)
				cancel()
				all = append(all, res)
				if err != nil {
					runErr = fmt.Errorf("%s (seed %d): %w", sp.name, cfg.seed, err)
					break
				}
				if traced {
					meta := map[string]any{"workload": sp.name, "dataset": sp.dataset, "seed": cfg.seed, "env": file.Env}
					if err := writeTrace(filepath.Join(dir, "out", "trace-"+sp.name+".json"), meta, ladderSpans, cliSpans); err != nil {
						runErr = err
						break
					}
				}
			}
		}
		agg := aggregate(all)
		file.Workloads[sp.name] = agg
		printWorkload(os.Stdout, sp.name, agg)
		if runErr != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", runErr)
		}
		if runErr != nil || !agg.Correct {
			code = 1
		}
		if ctx.Err() != nil {
			break
		}
	}
	data, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return 1, err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return 1, err
	}
	if len(selected) == 1 {
		// The driver's contract: the last line of standard output is the one
		// workload's verdict and metrics.
		fmt.Println(contractLine(file.Workloads[selected[0].name]))
	}
	return code, nil
}

// aggregate folds the runs of one workload into one result: counts add
// up, every run must be correct, and a metric measured by several runs
// becomes their median with its spread. The checks are the last run's,
// preceded by any check an earlier run failed.
func aggregate(all []*workloadResult) *workloadResult {
	last := all[len(all)-1]
	agg := &workloadResult{
		Why: last.Why, Dataset: last.Dataset, Nodes: last.Nodes, Edges: last.Edges, INodes: last.INodes,
		Flags: last.Flags, Correct: true, Metrics: make(map[string]metric),
	}
	values := make(map[string][]float64)
	for i, r := range all {
		agg.Correct = agg.Correct && r.Correct
		agg.Attempted += r.Attempted
		agg.Failed += r.Failed
		for _, c := range r.Checks {
			if i == len(all)-1 || !c.OK {
				agg.Checks = append(agg.Checks, c)
			}
		}
		for name, m := range r.Metrics {
			values[name] = append(values[name], m.Value)
			a := agg.Metrics[name]
			a.Unit = m.Unit
			a.N += m.N
			agg.Metrics[name] = a
		}
	}
	for name, v := range values {
		m := agg.Metrics[name]
		m.Value = median(v)
		if len(v) > 1 {
			m.Runs = v
			if s, ok := spread(v); ok {
				m.Spread = &s
			}
		}
		agg.Metrics[name] = m
	}
	return agg
}

func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func printWorkload(w *os.File, name string, r *workloadResult) {
	fmt.Fprintf(w, "== %s  dataset=%s nodes=%d edges=%d inodes=%d  attempted=%d failed=%d correct=%v\n",
		name, r.Dataset, r.Nodes, r.Edges, r.INodes, r.Attempted, r.Failed, r.Correct)
	for _, n := range sortedNames(r.Metrics) {
		m := r.Metrics[n]
		line := fmt.Sprintf("  %-34s %16.4f %-7s n=%d", n, m.Value, m.Unit, m.N)
		if m.Spread != nil {
			line += fmt.Sprintf("  spread=%.4f over %d runs", *m.Spread, len(m.Runs))
		}
		fmt.Fprintln(w, line)
	}
	for _, c := range r.Checks {
		if !c.OK {
			fmt.Fprintf(w, "  FAILED %s: %s\n", c.Name, c.Detail)
		}
	}
}

// contractLine renders the result in the form the driver reads: exactly
// the keys correct, attempted, failed and metrics.
func contractLine(r *workloadResult) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]mv, len(r.Metrics))
	for n, m := range r.Metrics {
		metrics[n] = mv{m.Value, m.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics,
	})
	if err != nil {
		panic(err) // a map of numbers and strings always marshals
	}
	return string(line)
}

// envStamp records what the numbers depend on besides the code.
func envStamp(root, dir string) map[string]any {
	env := map[string]any{
		"go":           runtime.Version(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"nproc":        runtime.NumCPU(),
		"goos_goarch":  runtime.GOOS + "/" + runtime.GOARCH,
		"cpu":          cpuModel(),
		"commit":       gitCommit(root),
		"clients":      clients,
		"fsync":        "window",
		"server_flags": "-load <dataset> -data <tmp> -fsync window; every other flag at its default (window 2ms, maxbatch 256, queue 1024, shards 1, extents dense)",
		"data_dir_fs":  fsType(dir),
	}
	return env
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// gitCommit is best effort: the driver's checkout is not a repository.
func gitCommit(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// fsType names the filesystem the server stores live on, from the
// longest mount point that prefixes dir.
func fsType(dir string) string {
	data, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := "", "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (dir == mp || strings.HasPrefix(dir, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, typ = mp, f[2]
		}
	}
	return typ
}
