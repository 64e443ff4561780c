package partition

import (
	"math/rand"
	"sync"
	"testing"

	"structix/internal/graph"
	"structix/internal/gtest"
)

// requireIdenticalLevels asserts that KBisimLevels run from several
// goroutines at once over the same graph yields exactly the
// single-goroutine construction — same block ids, not merely isomorphic
// partitions. The scratch is pooled per call and the graph is only read,
// so concurrent constructions must not see each other's state.
func requireIdenticalLevels(t *testing.T, g *graph.Graph, k int) {
	t.Helper()
	seq := KBisimLevels(g, k)
	for _, workers := range []int{1, 2, 3, 7} {
		par := make([][]*Partition, workers)
		var wg sync.WaitGroup
		for w := range par {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				par[w] = KBisimLevels(g, k)
			}(w)
		}
		wg.Wait()
		for w, levels := range par {
			for l := 0; l <= k; l++ {
				if seq[l].NumBlocks() != levels[l].NumBlocks() {
					t.Fatalf("workers=%d goroutine %d level %d: %d blocks alone, %d concurrently",
						workers, w, l, seq[l].NumBlocks(), levels[l].NumBlocks())
				}
				for v := 0; v < seq[l].Len(); v++ {
					if seq[l].Block(graph.NodeID(v)) != levels[l].Block(graph.NodeID(v)) {
						t.Fatalf("workers=%d goroutine %d level %d node %d: block %d alone, %d concurrently",
							workers, w, l, v, seq[l].Block(graph.NodeID(v)), levels[l].Block(graph.NodeID(v)))
					}
				}
			}
		}
	}
}

func TestParallelKBisimFixtures(t *testing.T) {
	g2, _, _, _ := gtest.Fig2()
	g4, _ := gtest.Fig4()
	g5, _, _ := gtest.Fig5(12)
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"Fig2", g2},
		{"Fig4", g4},
		{"Fig5", g5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			requireIdenticalLevels(t, tc.g, 4)
		})
	}
}

func TestParallelKBisimRandom(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		requireIdenticalLevels(t, gtest.RandomDAG(rng, 60, 30), 4)
		requireIdenticalLevels(t, gtest.RandomCyclic(rng, 60, 40), 4)
	}
}

// Deleted nodes leave dead slots in the NodeID space; every concurrent
// construction must leave them at NoBlock, exactly as a lone one does.
func TestParallelKBisimWithDeadNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := gtest.RandomDAG(rng, 40, 20)
	nodes := g.Nodes()
	removed := 0
	for _, v := range nodes {
		if v == g.Root() || removed >= 8 {
			continue
		}
		if len(g.Succ(v)) == 0 {
			for _, p := range g.Pred(v) {
				if err := g.DeleteEdge(p, v); err != nil {
					t.Fatal(err)
				}
			}
			g.RemoveNode(v)
			removed++
		}
	}
	requireIdenticalLevels(t, g, 3)
}
