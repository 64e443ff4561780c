package experiments

import (
	"fmt"
	"io"
	"time"

	"structix/internal/akindex"
	"structix/internal/dkindex"
	"structix/internal/graph"
	"structix/internal/query"
)

// DkResult compares the adaptive D(k)-index against uniform A(k)-indexes
// on one dataset and one query mix — the §8-extension experiment: spend
// locality only on the labels the workload's long paths touch.
type DkResult struct {
	Dataset string
	KMax    int

	SizeALow  int // A(1)
	SizeAHigh int // A(kmax)
	SizeDk    int // adaptive

	// For the hot (long-path) query set: average evaluation time and raw
	// false positives per query.
	HotTimeALow, HotTimeDk, HotTimeAHigh time.Duration
	HotFPALow, HotFPDk, HotFPAHigh       int
}

// RunDk measures the adaptive trade-off: the D(k) targets give the labels
// on the hot paths kmax-locality and everything else k=1.
func RunDk(name string, g *graph.Graph, hotLabels []string, hotQueries []string, kmax, reps int) DkResult {
	res := DkResult{Dataset: name, KMax: kmax}

	data := g.Freeze() // construction leaves g untouched: one read point
	aLow := akindex.Build(g, 1).Freeze(data)
	aHigh := akindex.Build(g, kmax).Freeze(data)
	targets := make(map[string]int, len(hotLabels))
	for _, l := range hotLabels {
		targets[l] = kmax
	}
	dk, err := dkindex.Build(g, dkindex.Config{Targets: targets, DefaultK: 1, KMax: kmax})
	if err != nil {
		panic("experiments: " + err.Error())
	}
	res.SizeALow = aLow.Size()
	res.SizeAHigh = aHigh.Size()
	res.SizeDk = dk.Size()

	for _, expr := range hotQueries {
		p := query.MustParse(expr)
		exact := len(query.EvalGraph(p, g))

		start := time.Now()
		var n int
		for i := 0; i < reps; i++ {
			n = len(query.EvalSnapshot(p, aLow))
		}
		res.HotTimeALow += time.Since(start) / time.Duration(reps)
		raw := query.SnapshotCandidates(p, aLow)
		res.HotFPALow += len(raw) - exact
		mustSame(expr, n, exact)

		start = time.Now()
		for i := 0; i < reps; i++ {
			n = len(dk.Eval(p))
		}
		res.HotTimeDk += time.Since(start) / time.Duration(reps)
		res.HotFPDk += len(dk.EvalRaw(p)) - exact
		mustSame(expr, n, exact)

		start = time.Now()
		for i := 0; i < reps; i++ {
			n = len(query.EvalSnapshot(p, aHigh))
		}
		res.HotTimeAHigh += time.Since(start) / time.Duration(reps)
		raw = query.SnapshotCandidates(p, aHigh)
		res.HotFPAHigh += len(raw) - exact
		mustSame(expr, n, exact)
	}
	return res
}

func mustSame(expr string, got, want int) {
	if got != want {
		panic(fmt.Sprintf("experiments: %s: validated result %d != exact %d", expr, got, want))
	}
}

// ReportDk prints the adaptive-index comparison.
func ReportDk(w io.Writer, r DkResult) {
	fmt.Fprintf(w, "== Adaptive D(k)-index vs uniform A(k) — %s (§8 extension)\n", r.Dataset)
	fmt.Fprintf(w, "index sizes:   A(1) %d   D(k) %d   A(%d) %d\n",
		r.SizeALow, r.SizeDk, r.KMax, r.SizeAHigh)
	fmt.Fprintf(w, "hot queries:   A(1) %v (%d raw FPs)   D(k) %v (%d raw FPs)   A(%d) %v (%d raw FPs)\n",
		r.HotTimeALow, r.HotFPALow, r.HotTimeDk, r.HotFPDk, r.KMax, r.HotTimeAHigh, r.HotFPAHigh)
	fmt.Fprintln(w)
}
