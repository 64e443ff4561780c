// Auction site under continuous updates: the workload the paper's
// introduction motivates. An XMark-shaped auction database receives a
// stream of edge insertions/deletions (users watching and un-watching
// auctions) and whole-subtree additions (new auctions being listed), while
// the 1-index serves path queries throughout.
//
// The example contrasts the split/merge maintainer with the propagate
// baseline on the same update stream: split/merge holds the index at (or
// near) minimum while propagate drifts.
package main

import (
	"fmt"
	"log"

	"structix"
)

func main() {
	// A cyclic auction database: person→watch→auction→bidder→person.
	g := structix.GenerateXMark(structix.DefaultXMark(64, 1, 7))
	fmt.Printf("auction site: %d dnodes, %d dedges (%d IDREF), cyclic\n",
		g.NumNodes(), g.NumEdges(), g.NumIDRefEdges())

	// Prepare the update stream first (it removes the pool edges), then
	// give each maintainer an identical copy of the starting graph.
	ops := structix.MixedUpdateScript(g, 0.2, 300, 7)
	sm := structix.BuildOneIndex(g)
	prop := structix.NewPropagate(structix.BuildOneIndex(g.Clone()), 0)

	fmt.Printf("initial 1-index: %d inodes (%.1f%% of graph)\n\n",
		sm.Size(), 100*float64(sm.Size())/float64(g.NumNodes()))

	queries := []*structix.Path{
		structix.MustParsePath("/site/people/person/name"),
		structix.MustParsePath("//open_auction/bidder/personref/person"),
		structix.MustParsePath("//person/watches/watch/open_auction"),
	}

	fmt.Println("updates   split/merge-size  propagate-size  minimum   sample-query-results")
	for i, op := range ops {
		var err1, err2 error
		if op.Insert {
			err1 = sm.InsertEdge(op.U, op.V, structix.IDRef)
			err2 = prop.InsertEdge(op.U, op.V, structix.IDRef)
		} else {
			err1 = sm.DeleteEdge(op.U, op.V)
			err2 = prop.DeleteEdge(op.U, op.V)
		}
		if err1 != nil || err2 != nil {
			log.Fatal(err1, err2)
		}
		if (i+1)%100 == 0 {
			min := structix.MinimumOneIndexSize(g)
			res := structix.EvalSnapshot(queries[(i/100)%len(queries)], sm.Freeze(g.Freeze()))
			fmt.Printf("%7d   %16d  %14d  %7d   %d\n",
				i+1, sm.Size(), prop.X.Size(), min, len(res))
		}
	}

	// New auctions get listed as whole subtrees: batched subgraph addition
	// (Figure 6) is cheaper than inserting the edges one at a time and
	// keeps the same guarantees.
	fmt.Println("\nlisting 5 new auctions via subtree re-addition:")
	before := sm.Size()
	var roots []structix.NodeID
	sm.Graph().EachNode(func(v structix.NodeID) {
		if len(roots) < 5 && sm.Graph().LabelName(v) == "open_auction" {
			roots = append(roots, v)
		}
	})
	for _, v := range roots {
		sg, err := sm.DeleteSubgraph(v, true)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := sm.AddSubgraph(sg); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("index size %d → %d (unchanged: identical subtrees re-merge), minimal=%v\n",
		before, sm.Size(), sm.IsMinimal())

	fmt.Printf("\nsplit/merge work: %d splits, %d merges over %d maintained updates\n",
		sm.Stats.Splits, sm.Stats.Merges, sm.Stats.UpdatesMaintained)
	fmt.Printf("final quality: split/merge %.2f%%, propagate %.2f%%\n",
		100*sm.Quality(), 100*prop.X.Quality())
}
