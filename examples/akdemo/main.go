// A(k) trade-off demo: sweep k and watch index size, query time, and
// false-positive counts move against each other — the size/precision
// trade-off that motivates the A(k)-index (§1, §3), made concrete on one
// dataset with one query set.
package main

import (
	"fmt"
	"time"

	"structix"
)

func main() {
	g := structix.GenerateXMark(structix.DefaultXMark(32, 1, 11))
	fmt.Printf("XMark(1): %d dnodes, %d dedges\n", g.NumNodes(), g.NumEdges())

	oneSize := structix.MinimumOneIndexSize(g)
	fmt.Printf("minimum 1-index: %d inodes (%.1f%% of graph — cyclic data blows it up)\n\n",
		oneSize, 100*float64(oneSize)/float64(g.NumNodes()))

	queries := []*structix.Path{
		structix.MustParsePath("/site/people/person/name"),
		structix.MustParsePath("/site/open_auctions/open_auction/itemref/item"),
		structix.MustParsePath("//open_auction/bidder/personref/person/name"),
	}

	fmt.Println("k   A(k)-size  frac-of-1idx   raw-FPs  validated-time  storage-overhead")
	for k := 1; k <= 5; k++ {
		x := structix.BuildAkIndex(g.Clone(), k)
		view := x.Freeze(x.Graph().Freeze())
		falsePositives := 0
		var valTime time.Duration
		for _, q := range queries {
			raw := structix.CompilePath(q).Candidates(view)
			start := time.Now()
			validated := structix.EvalSnapshot(q, view)
			valTime += time.Since(start)
			falsePositives += len(raw) - len(validated)
		}
		s := x.MeasureStorage()
		fmt.Printf("%d   %9d  %7.1f%%  %8d  %14v  %15.1f%%\n",
			k, x.Size(), 100*float64(x.Size())/float64(oneSize),
			falsePositives, valTime, 100*s.Overhead())
	}

	fmt.Println("\nSmaller k ⇒ smaller index but more false positives to validate;")
	fmt.Println("larger k approaches the 1-index. The paper finds k=2..5 the sweet spot,")
	fmt.Println("and Theorem 2 keeps every such family exactly minimum under updates.")
}
