// Adaptive indexing with the D(k)-index: derive per-label locality targets
// from a query workload, build the index that spends context only where
// those queries need it, and keep it maintained through updates — the
// extension the paper's conclusion points at, running end to end.
package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	"structix"
)

func main() {
	g := structix.GenerateXMark(structix.DefaultXMark(32, 1, 23))
	fmt.Printf("auction site: %d dnodes, %d dedges (cyclic)\n\n", g.NumNodes(), g.NumEdges())

	// The workload: mostly-short lookups plus one long "hot" join path.
	workload := []string{
		"/site/people/person/name",
		"/site/regions/*/item/name",
		"/site/open_auctions/open_auction/bidder/personref/person/name", // 6 steps
	}

	// Derive targets: each label on a workload path needs locality equal
	// to the depth at which the path visits it (a tiny workload compiler).
	targets := map[string]int{}
	for _, expr := range workload {
		p := structix.MustParsePath(expr)
		for depth, step := range p.Steps() {
			if step.Label == "*" {
				continue
			}
			if need := depth + 1; need > targets[step.Label] {
				targets[step.Label] = need
			}
		}
	}
	fmt.Println("derived per-label locality targets:")
	labels := make([]string, 0, len(targets))
	for l := range targets {
		labels = append(labels, l)
	}
	sort.Strings(labels) // map order would reorder the lines run to run
	for _, l := range labels {
		if k := targets[l]; k >= 4 {
			fmt.Printf("  %-14s k=%d\n", l, k)
		}
	}

	dk, err := structix.BuildDkIndex(g, structix.DkConfig{Targets: targets, DefaultK: 1})
	if err != nil {
		log.Fatal(err)
	}
	uniLow := structix.BuildAkIndex(g.Clone(), 1)
	uniHigh := structix.BuildAkIndex(g.Clone(), dk.KMax())
	fmt.Printf("\nindex sizes: A(1)=%d   adaptive D(k)=%d   A(%d)=%d\n",
		uniLow.Size(), dk.Size(), dk.KMax(), uniHigh.Size())

	for _, expr := range workload {
		p := structix.MustParsePath(expr)
		start := time.Now()
		res := dk.Eval(p)
		fmt.Printf("  %-62s %4d results in %v (raw FPs: %d)\n",
			expr, len(res), time.Since(start), len(dk.EvalRaw(p))-len(res))
	}

	// Updates flow through the underlying maintained family; the cut stays
	// exactly what a fresh D(k) build would produce.
	fmt.Println("\napplying 200 updates...")
	ops := structix.GenerateMixedOps(dk.Graph(), 100, 23)
	for _, op := range ops {
		var err error
		if op.Kind == 0 {
			err = dk.InsertEdge(op.U, op.V, op.Edge)
		} else {
			err = dk.DeleteEdge(op.U, op.V)
		}
		if err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("after updates: %d classes; family still minimum: %v\n",
		dk.Size(), dk.Family().IsMinimum())
}
