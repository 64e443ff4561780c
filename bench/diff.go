package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// benchmarkJSON is the part of the root BENCHMARK.json that -diff needs:
// which metrics are end-to-end, which way is better, and by what share of
// the old value each may worsen before it counts as a regression.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON() (*benchmarkJSON, error) {
	root, err := moduleRoot()
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}

func loadResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// runDiff prints, per workload and end-to-end metric, old, new, their
// ratio with its base, and a verdict:
//
//	worse       new is worse than old by more than the metric's bound
//	unresolved  not worse, but either side's run-to-run spread is wider
//	            than the bound, so "no regression" cannot be told from noise
//	unchanged   not worse, and the spread (where known) is inside the bound
//
// It returns the process exit code: 1 on any worse, 2 on unusable input.
func runDiff(w io.Writer, oldPath, newPath string) int {
	b, err := loadBenchmarkJSON()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	oldF, err := loadResult(oldPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	newF, err := loadResult(newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	fmt.Fprintf(w, "%-12s %-24s %14s %14s  %-22s %-10s\n", "workload", "metric", "old", "new", "ratio (base: old)", "verdict")
	worse, compared := 0, 0
	for _, wl := range b.Workloads {
		o, n := oldF.Workloads[wl.Name], newF.Workloads[wl.Name]
		if o == nil || n == nil {
			continue
		}
		for _, m := range b.EndToEnd {
			om, ok1 := o.Metrics[m.Name]
			nm, ok2 := n.Metrics[m.Name]
			if !ok1 || !ok2 {
				continue
			}
			compared++
			ratio := 0.0
			if om.Value != 0 {
				ratio = nm.Value / om.Value
			}
			isWorse := nm.Value > om.Value*(1+m.Bound)
			if m.Better == "higher" {
				isWorse = nm.Value < om.Value*(1-m.Bound)
			}
			verdict := "unchanged"
			switch {
			case isWorse:
				verdict = "worse"
				worse++
			case wider(om.Spread, m.Bound) || wider(nm.Spread, m.Bound):
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%-12s %-24s %14.4f %14.4f  %-22s %-10s\n", wl.Name, m.Name, om.Value, nm.Value,
				fmt.Sprintf("%.4f of %.4g %s", ratio, om.Value, m.Unit), verdict)
		}
	}
	if compared == 0 {
		fmt.Fprintln(os.Stderr, "bench: the two files share no workload × end-to-end metric")
		return 2
	}
	fmt.Fprintf(w, "%d compared, %d worse\n", compared, worse)
	if worse > 0 {
		return 1
	}
	return 0
}

func wider(spread *float64, bound float64) bool { return spread != nil && *spread > bound }
