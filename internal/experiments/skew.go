package experiments

import (
	"fmt"
	"io"

	"structix/internal/graph"
	"structix/internal/oneindex"
	"structix/internal/partition"
	"structix/internal/workload"
)

// SkewResult compares maintenance quality under uniform vs hot-spot update
// streams — a robustness probe beyond the paper's uniform workload: the
// minimality guarantee is per-update and therefore should not care where
// updates land.
type SkewResult struct {
	Dataset string
	Updates int

	UniformFinal float64 // split/merge quality after the uniform stream
	SkewedFinal  float64 // split/merge quality after the hot-spot stream
	UniformMax   float64
	SkewedMax    float64
}

// RunSkew replays a uniform and a heavily skewed script of equal length
// through split/merge maintenance on clones of the same graph.
func RunSkew(name string, g *graph.Graph, pairs int, seed int64) SkewResult {
	gUni := g
	gSkew := g.Clone()
	opsU := workload.MixedScript(gUni, 0.2, pairs, seed)
	opsS := workload.SkewedScript(gSkew, 0.2, 0.05, pairs, seed)

	res := SkewResult{Dataset: name, Updates: len(opsU)}
	run := func(g *graph.Graph, ops []graph.EdgeOp) (final, max float64) {
		x := oneindex.Build(g)
		for i, op := range ops {
			applyOp(x, op)
			if (i+1)%(len(ops)/5+1) == 0 {
				min := partition.CoarsestStable(g, partition.ByLabel(g)).NumBlocks()
				q := quality(x.Size(), min)
				if q > max {
					max = q
				}
				final = q
			}
		}
		return final, max
	}
	res.UniformFinal, res.UniformMax = run(gUni, opsU)
	res.SkewedFinal, res.SkewedMax = run(gSkew, opsS)
	return res
}

// ReportSkew prints the robustness comparison.
func ReportSkew(w io.Writer, r SkewResult) {
	fmt.Fprintf(w, "== Split/merge quality under uniform vs hot-spot updates — %s (robustness probe)\n", r.Dataset)
	fmt.Fprintf(w, "uniform: final %.2f%%, max %.2f%%   |   hot-spot: final %.2f%%, max %.2f%%  (%d updates each)\n\n",
		100*r.UniformFinal, 100*r.UniformMax, 100*r.SkewedFinal, 100*r.SkewedMax, r.Updates)
}
