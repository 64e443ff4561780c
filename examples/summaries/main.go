// Structural-summary lineage: 1-index → A(k)-index (§2 of the paper). One
// dataset, two summaries, the same queries — showing why the successor
// was invented: the 1-index is bounded by the data but grows with
// irregularity; the A(k)-index stays small by forgetting structure beyond
// distance k, at the price of a validation step.
package main

import (
	"fmt"
	"log"

	"structix"
)

func main() {
	// Acyclic first: on (near-)tree data both stay small.
	tree := structix.GenerateXMark(structix.DefaultXMark(64, 0, 21))
	cyclic := structix.GenerateXMark(structix.DefaultXMark(64, 1, 21))

	for _, tc := range []struct {
		name string
		g    *structix.Graph
	}{{"XMark(0) — acyclic", tree}, {"XMark(1) — cyclic", cyclic}} {
		g := tc.g
		fmt.Printf("== %s: %d dnodes, %d dedges\n", tc.name, g.NumNodes(), g.NumEdges())

		one := structix.BuildOneIndex(g)
		ak := structix.BuildAkIndex(g, 2)
		data := g.Freeze() // one read point for both snapshots
		oneSnap, akSnap := one.Freeze(data), ak.Freeze(data)
		fmt.Printf("   1-index: %6d inodes (%.1f%% of graph)\n",
			one.Size(), 100*float64(one.Size())/float64(g.NumNodes()))
		fmt.Printf("   A(2):    %6d inodes (%.1f%% of graph)\n",
			ak.Size(), 100*float64(ak.Size())/float64(g.NumNodes()))

		// Same answers either way — the indexes differ in cost, not truth.
		for _, expr := range []string{"//person/name", "/site/regions/*/item/name"} {
			p := structix.MustParsePath(expr)
			direct := structix.EvalGraph(p, g)
			viaOne := structix.EvalSnapshot(p, oneSnap)
			viaAk := structix.EvalSnapshot(p, akSnap)
			fmt.Printf("   %-28s direct=%d 1idx=%d ak=%d\n",
				expr, len(direct), len(viaOne), len(viaAk))
			if len(direct) != len(viaOne) || len(direct) != len(viaAk) {
				log.Fatalf("summary disagreement on %s", expr)
			}
		}

		// Selectivity straight off the index — the synopsis use (§1).
		p := structix.MustParsePath("//open_auction/bidder")
		fmt.Printf("   selectivity(%s) = %.4f (no data access)\n\n",
			p, structix.CompilePath(p).Selectivity(oneSnap))
	}

	fmt.Println("The 1-index is bounded by the data but tracks irregularity; A(k) caps")
	fmt.Println("the tracked context at k. The paper's algorithms keep both")
	fmt.Println("minimal/minimum under updates — no rebuilds.")
}
