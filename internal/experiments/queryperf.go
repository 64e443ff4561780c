package experiments

import (
	"fmt"
	"io"
	"time"

	"structix/internal/akindex"
	"structix/internal/graph"
	"structix/internal/oneindex"
	"structix/internal/query"
)

// QueryPerfResult compares the cost of evaluating one path expression
// directly against the data graph, via the 1-index, and via the A(k)-index
// with validation. This is not a figure in the paper — it reproduces the
// *motivation* of §1/§3 (smaller index ⇒ faster path evaluation) and makes
// the quality metric's consequences observable.
type QueryPerfResult struct {
	Dataset string
	Expr    string
	Results int

	DirectTime      time.Duration
	OneIndexTime    time.Duration
	AkValidatedTime time.Duration

	GraphNodes   int
	OneIndexSize int
	AkSize       int
}

// RunQueryPerf evaluates each expression repeatedly and reports average
// evaluation times. The same results are cross-checked for equality; a
// mismatch panics (it would mean an index correctness bug).
func RunQueryPerf(name string, g *graph.Graph, exprs []string, k, reps int) []QueryPerfResult {
	data := g.Freeze()
	one := oneindex.Build(g).Freeze(data)
	ak := akindex.Build(g, k).Freeze(data)
	var out []QueryPerfResult
	for _, expr := range exprs {
		p := query.MustParse(expr)
		r := QueryPerfResult{
			Dataset:      name,
			Expr:         expr,
			GraphNodes:   g.NumNodes(),
			OneIndexSize: one.Size(),
			AkSize:       ak.Size(),
		}
		var direct, viaOne, viaAk []graph.NodeID
		start := time.Now()
		for i := 0; i < reps; i++ {
			direct = query.EvalGraph(p, g)
		}
		r.DirectTime = time.Since(start) / time.Duration(reps)
		start = time.Now()
		for i := 0; i < reps; i++ {
			viaOne = query.EvalSnapshot(p, one)
		}
		r.OneIndexTime = time.Since(start) / time.Duration(reps)
		start = time.Now()
		for i := 0; i < reps; i++ {
			viaAk = query.EvalSnapshot(p, ak)
		}
		r.AkValidatedTime = time.Since(start) / time.Duration(reps)
		if len(direct) != len(viaOne) || len(direct) != len(viaAk) {
			panic(fmt.Sprintf("experiments: query %q result mismatch: %d direct, %d 1-index, %d A(k)",
				expr, len(direct), len(viaOne), len(viaAk)))
		}
		r.Results = len(direct)
		out = append(out, r)
	}
	return out
}

// ReportQueryPerf prints the query evaluation comparison.
func ReportQueryPerf(w io.Writer, rs []QueryPerfResult) {
	if len(rs) == 0 {
		return
	}
	fmt.Fprintf(w, "== Path evaluation: data graph vs structural indexes — %s (motivation experiment)\n", rs[0].Dataset)
	fmt.Fprintf(w, "graph %d dnodes, 1-index %d inodes, A(k) %d inodes\n",
		rs[0].GraphNodes, rs[0].OneIndexSize, rs[0].AkSize)
	for _, r := range rs {
		fmt.Fprintf(w, "  %-50s %6d results  direct %-10v 1-index %-10v A(k)+validate %v\n",
			r.Expr, r.Results, r.DirectTime, r.OneIndexTime, r.AkValidatedTime)
	}
	fmt.Fprintln(w)
}
