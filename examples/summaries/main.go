// Structural-summary lineage: DataGuide → 1-index → A(k)-index (§2 of the
// paper). One dataset, three summaries, the same queries — showing why
// each successor was invented: the strong DataGuide is exact but can
// explode on non-tree data; the 1-index is bounded by the data but grows
// with irregularity; the A(k)-index stays small by forgetting structure
// beyond distance k, at the price of a validation step.
package main

import (
	"fmt"
	"log"

	"structix"
)

func main() {
	// Acyclic first: on (near-)tree data all three behave.
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

		guide, err := structix.BuildDataGuide(g, 4*g.NumNodes())
		switch {
		case err == structix.ErrDataGuideTooLarge:
			fmt.Printf("   DataGuide: exceeded %d states — the §2 blow-up on shared/cyclic data\n",
				4*g.NumNodes())
		case err != nil:
			log.Fatal(err)
		default:
			fmt.Printf("   DataGuide: %d states, %d edges\n", guide.Size(), guide.NumEdges())
		}

		// Same answers either way — the indexes differ in cost, not truth.
		for _, expr := range []string{"//person/name", "/site/regions/*/item/name"} {
			p := structix.MustParsePath(expr)
			direct := structix.EvalGraph(p, g)
			viaOne := structix.EvalSnapshot(p, oneSnap)
			viaAk := structix.EvalSnapshot(p, akSnap)
			line := fmt.Sprintf("   %-28s direct=%d 1idx=%d ak=%d",
				expr, len(direct), len(viaOne), len(viaAk))
			if guide != nil && err == nil {
				line += fmt.Sprintf(" guide=%d", len(guide.Eval(p)))
			}
			fmt.Println(line)
			if len(direct) != len(viaOne) || len(direct) != len(viaAk) {
				log.Fatalf("summary disagreement on %s", expr)
			}
		}

		// Selectivity straight off the index — the synopsis use (§1).
		p := structix.MustParsePath("//open_auction/bidder")
		fmt.Printf("   selectivity(%s) = %.4f (no data access)\n\n",
			p, structix.Selectivity(p, oneSnap))
	}

	fmt.Println("The DataGuide is exact but unbounded; the 1-index is bounded but tracks")
	fmt.Println("irregularity; A(k) caps the tracked context at k. The paper's algorithms")
	fmt.Println("keep the latter two minimal/minimum under updates — no rebuilds.")
}
