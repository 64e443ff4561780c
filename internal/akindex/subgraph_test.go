package akindex

import (
	"math/rand"
	"testing"

	"structix/internal/graph"
	"structix/internal/gtest"
)

func buildTreeUnder(t *testing.T, g *graph.Graph, parent graph.NodeID, rng *rand.Rand, size int) graph.NodeID {
	t.Helper()
	labels := []string{"s", "t", "u"}
	root := g.AddNode("sub")
	if err := g.AddEdge(parent, root, graph.Tree); err != nil {
		t.Fatal(err)
	}
	nodes := []graph.NodeID{root}
	for i := 1; i < size; i++ {
		v := g.AddNode(labels[rng.Intn(len(labels))])
		p := nodes[rng.Intn(len(nodes))]
		if err := g.AddEdge(p, v, graph.Tree); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, v)
	}
	return root
}

func TestAkDeleteThenAddSubgraphRoundTrip(t *testing.T) {
	for _, k := range []int{1, 2, 4} {
		for seed := int64(0); seed < 3; seed++ {
			rng := rand.New(rand.NewSource(seed*7 + int64(k)))
			g := gtest.RandomCyclic(rng, 40, 20)
			root := buildTreeUnder(t, g, g.Root(), rng, 15)
			members := g.Reachable(root, true)
			outside := g.Nodes()[:15]
			for i := 0; i < 4; i++ {
				m := members[rng.Intn(len(members))]
				o := outside[rng.Intn(len(outside))]
				if o != m {
					_ = g.AddEdge(o, m, graph.IDRef)
					_ = g.AddEdge(m, o, graph.IDRef)
				}
			}
			x := Build(g, k)
			mustValid(t, x)

			sg, err := x.DeleteSubgraph(root, true)
			if err != nil {
				t.Fatalf("k=%d seed %d: DeleteSubgraph: %v", k, seed, err)
			}
			mustValid(t, x)
			mustMinimum(t, x, "after subtree deletion")

			ids, err := x.AddSubgraph(sg)
			if err != nil {
				t.Fatalf("k=%d seed %d: AddSubgraph: %v", k, seed, err)
			}
			if len(ids) != sg.NumNodes() {
				t.Errorf("k=%d seed %d: got %d ids, want %d", k, seed, len(ids), sg.NumNodes())
			}
			mustValid(t, x)
			mustMinimum(t, x, "after subtree re-addition")
		}
	}
}

func TestAkAddIdenticalSubgraphMerges(t *testing.T) {
	g := graph.New()
	r := g.AddRoot()
	rng := rand.New(rand.NewSource(5))
	root1 := buildTreeUnder(t, g, r, rng, 12)
	x := Build(g, 3)
	sizeBefore := x.Size()
	sg := graph.Extract(g, root1, true)
	if _, err := x.AddSubgraph(sg); err != nil {
		t.Fatal(err)
	}
	mustValid(t, x)
	mustMinimum(t, x, "identical sibling")
	if x.Size() != sizeBefore {
		t.Errorf("Size = %d after adding an identical sibling subtree, want %d", x.Size(), sizeBefore)
	}
}

func TestAkAddSubgraphWithNewLabels(t *testing.T) {
	g := graph.New()
	g.AddRoot()
	x := Build(g, 2)
	sg := &graph.Subgraph{
		Labels: []graph.LabelID{
			g.Labels().Intern("brandnew"),
			g.Labels().Intern("alsonew"),
		},
		Values:    []string{"", ""},
		Edges:     [][2]int32{{0, 1}},
		EdgeKinds: []graph.EdgeKind{graph.Tree},
	}
	if _, err := x.AddSubgraph(sg); err != nil {
		t.Fatal(err)
	}
	mustValid(t, x)
	mustMinimum(t, x, "new labels island")
}

func TestAkAddEmptySubgraph(t *testing.T) {
	g, _, _, _ := gtest.Fig2()
	x := Build(g, 2)
	ids, err := x.AddSubgraph(&graph.Subgraph{})
	if err != nil || ids != nil {
		t.Errorf("empty subgraph: ids=%v err=%v", ids, err)
	}
	mustValid(t, x)
}

func TestAkSubgraphChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := gtest.RandomDAG(rng, 40, 15)
	root := buildTreeUnder(t, g, g.Root(), rng, 18)
	x := Build(g, 3)
	want := x.Size()
	for round := 0; round < 4; round++ {
		sg, err := x.DeleteSubgraph(root, true)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		ids, err := x.AddSubgraph(sg)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		root = ids[0]
		if x.Size() != want {
			t.Fatalf("round %d: Size = %d, want %d", round, x.Size(), want)
		}
		mustMinimum(t, x, "churn round")
	}
	mustValid(t, x)
}

// Two identical detached islands must share inodes at every level once the
// second is added: with no incoming edge, the A(0) fusion cascade is what
// merges the parentless root chain with the first island's.
func TestAkTwoIdenticalIslandsMerge(t *testing.T) {
	g, _, _, _ := gtest.Fig2()
	x := Build(g, 3)
	mk := func() *graph.Subgraph {
		return &graph.Subgraph{
			Labels:    []graph.LabelID{g.Labels().Intern("isl"), g.Labels().Intern("leaf"), g.Labels().Intern("leaf")},
			Values:    []string{"", "", ""},
			Edges:     [][2]int32{{0, 1}, {1, 2}},
			EdgeKinds: []graph.EdgeKind{graph.Tree, graph.Tree},
		}
	}
	if _, err := x.AddSubgraph(mk()); err != nil {
		t.Fatal(err)
	}
	mustMinimum(t, x, "first island")
	var sizes []int
	for l := 0; l <= x.K(); l++ {
		sizes = append(sizes, x.SizeAt(l))
	}
	if _, err := x.AddSubgraph(mk()); err != nil {
		t.Fatal(err)
	}
	mustValid(t, x)
	mustMinimum(t, x, "second island")
	for l := 0; l <= x.K(); l++ {
		if x.SizeAt(l) != sizes[l] {
			t.Errorf("level %d: %d inodes after the second island, want %d", l, x.SizeAt(l), sizes[l])
		}
	}
}
