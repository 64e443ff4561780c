package partition

import (
	"math/rand"
	"testing"

	"structix/internal/graph"
	"structix/internal/gtest"
)

// The TestPT* tests hold CoarsestStable, the signature-refinement engine,
// to the naive fixpoint reference on the paper's fixtures, on
// degenerate graphs and on graphs with dead NodeID slots.

// requireMatchesNaive asserts CoarsestStable equals NaiveCoarsestStable on
// g's label partition and returns it.
func requireMatchesNaive(t *testing.T, name string, g *graph.Graph) *Partition {
	t.Helper()
	fast := CoarsestStable(g, ByLabel(g))
	slow := NaiveCoarsestStable(g, ByLabel(g))
	if !Equal(fast, slow) {
		t.Fatalf("%s: CoarsestStable disagrees with naive reference\nfast: %s\nslow: %s",
			name, fast.Fingerprint(), slow.Fingerprint())
	}
	return fast
}

func TestPTFixtures(t *testing.T) {
	g2, u, v, _ := gtest.Fig2()
	if got := requireMatchesNaive(t, "Fig2 before", g2).NumBlocks(); got != 7 {
		t.Errorf("Fig2 before: %d blocks, want 7", got)
	}
	if err := g2.AddEdge(u, v, graph.IDRef); err != nil {
		t.Fatal(err)
	}
	if got := requireMatchesNaive(t, "Fig2 after", g2).NumBlocks(); got != 7 {
		t.Errorf("Fig2 after: %d blocks, want 7", got)
	}

	g4, _ := gtest.Fig4()
	if got := requireMatchesNaive(t, "Fig4", g4).NumBlocks(); got != 2 {
		t.Errorf("Fig4: %d blocks, want 2 (cycle with index self-loop)", got)
	}

	g5, _, _ := gtest.Fig5(10)
	requireMatchesNaive(t, "Fig5", g5)
}

// Every engine that stays agrees on the degenerate inputs: no nodes gives
// no blocks, a lone root gives one.
func TestPTTrivialCases(t *testing.T) {
	g := graph.New()
	for _, want := range []int{0, 1} {
		if want == 1 {
			g.AddRoot()
		}
		got := map[string]int{
			"CoarsestStable":      CoarsestStable(g, ByLabel(g)).NumBlocks(),
			"NaiveCoarsestStable": NaiveCoarsestStable(g, ByLabel(g)).NumBlocks(),
			"KBisimLevels[2]":     KBisimLevels(g, 2)[2].NumBlocks(),
		}
		for name, n := range got {
			if n != want {
				t.Errorf("%d-node graph: %s gives %d blocks, want %d", want, name, n, want)
			}
		}
	}
}

func TestPTWithDeadNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := gtest.RandomDAG(rng, 30, 10)
	nodes := g.Nodes()
	dead := []graph.NodeID{nodes[len(nodes)-1], nodes[len(nodes)-2]}
	for _, v := range dead {
		g.RemoveNode(v)
	}
	p := requireMatchesNaive(t, "dead nodes", g)
	for _, v := range dead {
		if p.Block(v) != NoBlock {
			t.Errorf("dead node %d assigned block %d", v, p.Block(v))
		}
	}
}
