// Movie database with clustered cycles: the IMDB-shaped workload of §7.
// Movies reference people and people reference movies back, forming short
// cycles inside communities — exactly the structure that makes the 1-index
// large and minimal-but-not-minimum states possible. The A(k)-index trades
// a little precision for a much smaller index, and the split/merge
// maintainer keeps the whole A(0..k) family minimum through updates
// (Theorem 2 holds even on cyclic data).
package main

import (
	"fmt"
	"log"

	"structix"
)

func main() {
	g := structix.GenerateIMDB(structix.DefaultIMDB(64, 3))
	fmt.Printf("movie db: %d dnodes, %d dedges (%d IDREF), acyclic=%v\n",
		g.NumNodes(), g.NumEdges(), g.NumIDRefEdges(), g.IsAcyclic())

	// Prepare the update stream first: it moves 20% of the IDREF edges
	// into an insertion pool (mutating g), and indexes must be built on
	// the post-preparation state.
	ops := structix.MixedUpdateScript(g, 0.2, 100, 3)

	one := structix.BuildOneIndex(g.Clone())
	const k = 2
	ak := structix.BuildAkIndex(g, k)
	fmt.Printf("1-index: %d inodes;  A(%d)-index: %d inodes (%.1fx smaller)\n\n",
		one.Size(), k, ak.Size(), float64(one.Size())/float64(ak.Size()))

	// Queries longer than k pick up false positives on the A(k)-index; the
	// validation pass removes them.
	view := ak.Freeze(g.Freeze())
	for _, expr := range []string{
		"//movie/actorref/person",
		"//person/filmographyref/movie/genre",
		"//movie/actorref/person/filmographyref/movie",
	} {
		p := structix.MustParsePath(expr)
		raw := structix.CompilePath(p).Candidates(view)
		validated := structix.EvalSnapshot(p, view)
		fmt.Printf("%-50s raw=%4d  validated=%4d  (false positives removed: %d)\n",
			expr, len(raw), len(validated), len(raw)-len(validated))
	}

	// Continuous updates: casting changes. The family stays the minimum
	// A(0..k) at every step — verified here, not assumed.
	fmt.Println("\napplying 200 casting updates...")
	for _, op := range ops {
		var err error
		if op.Insert {
			err = ak.InsertEdge(op.U, op.V, structix.IDRef)
		} else {
			err = ak.DeleteEdge(op.U, op.V)
		}
		if err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("after updates: %d inodes, minimum=%v, quality=%.0f%%\n",
		ak.Size(), ak.IsMinimum(), 100*ak.Quality())
	fmt.Printf("split/merge work: %d splits, %d merges (%d of %d updates touched the index)\n",
		ak.Stats.Splits, ak.Stats.Merges, ak.Stats.UpdatesMaintained,
		ak.Stats.UpdatesMaintained+ak.Stats.UpdatesNoChange)

	s := ak.MeasureStorage()
	fmt.Printf("storage: stand-alone A(%d) %d units, full A(0..%d) %d units (+%.1f%%)\n",
		k, s.StandaloneUnits, k, s.FullUnits, 100*s.Overhead())
}
