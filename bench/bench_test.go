package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestSmoke keeps the harness compiling and its checks live under the
// repo's `go test ./...`: every workload end to end against a real
// xsiserve, one traced run with the whole layer ladder, and -diff of the
// result against itself — on a 1/64 XMark with 300 ms windows, so the
// numbers mean nothing and only the verdicts are asserted. It also pins
// BENCHMARK.json to the code: every metric the file lists must come out
// of a run under that name and unit, and nothing else may.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns servers; skipped under -short")
	}
	b, err := loadBenchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	bin, err := buildServer(ctx, root, dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := defaultConfig(1, 300*time.Millisecond, dir)
	cfg.smokeDiv = 64

	if len(b.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(b.Workloads), len(specs))
	}
	file := &resultFile{Schema: "structix-bench/1", Seed: cfg.seed, Runs: 1, Seconds: cfg.window.Seconds(), Workloads: map[string]*workloadResult{}}
	for i, sp := range specs {
		if b.Workloads[i].Name != sp.name || b.Workloads[i].Why != sp.why {
			t.Errorf("BENCHMARK.json workload %d is %q (%q), the harness has %q (%q)", i, b.Workloads[i].Name, b.Workloads[i].Why, sp.name, sp.why)
		}
		res, _, _, err := runWorkload(ctx, cfg, sp, bin, false)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		for _, c := range res.Checks {
			if !c.OK {
				t.Errorf("%s: check %s failed: %s", sp.name, c.Name, c.Detail)
			}
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", sp.name, res.Correct, res.Attempted, res.Failed)
		}
		want := make(map[string]string)
		for _, m := range b.EndToEnd {
			want[m.Name] = m.Unit
		}
		sameMetrics(t, sp.name+" end to end", res.Metrics, want, true)
		file.Workloads[sp.name] = res
	}

	// One traced run: every per-layer metric, and a trace file to read.
	sp, _ := specByName("mixed")
	res, cli, lad, err := runWorkload(ctx, cfg, sp, bin, true)
	if err != nil {
		t.Fatalf("traced %s: %v", sp.name, err)
	}
	if !res.Correct {
		t.Errorf("traced %s: not correct: %+v", sp.name, res.Checks)
	}
	want := make(map[string]string)
	for _, m := range b.PerLayer {
		want[m.Name] = m.Unit
	}
	sameMetrics(t, "traced "+sp.name, res.Metrics, want, false)
	tracePath := filepath.Join(dir, "trace.json")
	if err := writeTrace(tracePath, map[string]any{"workload": sp.name}, lad, cli); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Ladder struct {
			Spans []span `json:"spans"`
		} `json:"ladder"`
		Client struct {
			Total int `json:"spans_total"`
		} `json:"client"`
	}
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Ladder.Spans) == 0 || doc.Client.Total == 0 {
		t.Errorf("trace has %d ladder spans and %d client spans", len(doc.Ladder.Spans), doc.Client.Total)
	}
	for _, s := range doc.Ladder.Spans {
		if s.End < s.Start || s.Req == 0 || (s.Parent != 0 && doc.Ladder.Spans[s.Parent-1].Req != s.Req) {
			t.Fatalf("malformed span %+v", s)
		}
	}

	// A result diffed against itself has nothing worse.
	out := filepath.Join(dir, "result.json")
	data, err := json.Marshal(file)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var report bytes.Buffer
	if code := runDiff(&report, out, out); code != 0 {
		t.Errorf("-diff of a run against itself exits %d:\n%s", code, report.String())
	}
}

// sameMetrics asserts that got holds exactly the metrics of want, each
// under its unit, and — for end-to-end metrics — none of them zero.
func sameMetrics(t *testing.T, what string, got map[string]metric, want map[string]string, nonZero bool) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s is in BENCHMARK.json but was not measured", what, name)
		case m.Unit != unit:
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", what, name, m.Unit, unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: metric %s is %v", what, name, m.Value)
		case nonZero && m.Value == 0:
			t.Errorf("%s: metric %s is 0", what, name)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: metric %s was measured but is not in BENCHMARK.json", what, name)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// → [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
	// statistics.quantiles([10, 20], n=4) → [7.5, 15.0, 22.5]
	q1, q3 = quartiles([]float64{10, 20})
	if q1 != 7.5 || q3 != 22.5 {
		t.Errorf("quartiles = %v, %v; want 7.5, 22.5", q1, q3)
	}
}
