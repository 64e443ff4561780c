package graph

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

// buildHost creates a small host graph with a marked subtree under "sub".
func buildHost(t *testing.T) (*Graph, NodeID) {
	t.Helper()
	g := New()
	r := g.AddRoot()
	a := g.AddNode("a")
	sub := g.AddNode("sub")
	c1 := g.AddNode("c")
	c2 := g.AddNode("c")
	leaf := g.AddNode("leaf")
	out := g.AddNode("out")
	for _, e := range [][2]NodeID{{r, a}, {r, sub}, {sub, c1}, {sub, c2}, {c1, leaf}, {r, out}} {
		if err := g.AddEdge(e[0], e[1], Tree); err != nil {
			t.Fatal(err)
		}
	}
	// Cross edges: in (a→c2 idref) and out (c1→out idref).
	if err := g.AddEdge(a, c2, IDRef); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(c1, out, IDRef); err != nil {
		t.Fatal(err)
	}
	g.SetValue(leaf, "v")
	return g, sub
}

func TestExtractShape(t *testing.T) {
	g, sub := buildHost(t)
	s := Extract(g, sub, true)
	if s.NumNodes() != 4 { // sub, c1, c2, leaf
		t.Fatalf("NumNodes = %d, want 4", s.NumNodes())
	}
	if s.Members[0] != sub {
		t.Errorf("Members[0] = %d, want the root %d", s.Members[0], sub)
	}
	if len(s.Edges) != 3 {
		t.Errorf("internal edges = %d, want 3", len(s.Edges))
	}
	// Cross-in: r→sub (tree) and a→c2 (idref); cross-out: c1→out.
	if len(s.CrossIn) != 2 {
		t.Errorf("CrossIn = %d, want 2: %+v", len(s.CrossIn), s.CrossIn)
	}
	if len(s.CrossOut) != 1 {
		t.Errorf("CrossOut = %d, want 1", len(s.CrossOut))
	}
	// Values preserved.
	found := false
	for i, v := range s.Values {
		if v == "v" && g.Labels().Name(s.Labels[i]) == "leaf" {
			found = true
		}
	}
	if !found {
		t.Errorf("leaf value lost in extraction")
	}
	// Extraction must not mutate the host.
	if g.NumNodes() != 7 || g.NumEdges() != 8 {
		t.Errorf("host mutated by Extract")
	}
}

func TestExtractFollowIDRef(t *testing.T) {
	g, sub := buildHost(t)
	s := Extract(g, sub, false) // follow idref: c1→out pulls "out" in
	if s.NumNodes() != 5 {
		t.Errorf("NumNodes = %d, want 5 with IDREF traversal", s.NumNodes())
	}
}

func TestInsertNodesRoundTrip(t *testing.T) {
	g, sub := buildHost(t)
	s := Extract(g, sub, true)
	ids, err := s.InsertNodes(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != s.NumNodes() {
		t.Fatalf("ids = %d", len(ids))
	}
	// Fresh ids, same labels, same internal structure.
	for i, v := range ids {
		if g.Label(v) != s.Labels[i] {
			t.Errorf("node %d label mismatch", i)
		}
		if v == s.Members[i] {
			t.Errorf("node %d reused the original id", i)
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildGraphStandalone(t *testing.T) {
	g, sub := buildHost(t)
	s := Extract(g, sub, true)
	sg, ids, err := s.BuildGraph(g.Labels())
	if err != nil {
		t.Fatal(err)
	}
	if sg.Root() != ids[0] {
		t.Errorf("standalone root mismatch")
	}
	if sg.NumNodes() != s.NumNodes() || sg.NumEdges() != len(s.Edges) {
		t.Errorf("standalone shape wrong")
	}
	if err := sg.Validate(); err != nil {
		t.Fatal(err)
	}
}

// Property: Extract ∘ remove ∘ InsertNodes preserves node count, label
// multiset and internal edge count for random subtrees of random DAGs.
func TestExtractInsertProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := New()
		r := g.AddRoot()
		nodes := []NodeID{r}
		labels := []string{"a", "b", "c"}
		for i := 0; i < 20; i++ {
			v := g.AddNode(labels[rng.Intn(3)])
			if err := g.AddEdge(nodes[rng.Intn(len(nodes))], v, Tree); err != nil {
				return false
			}
			nodes = append(nodes, v)
		}
		root := nodes[1+rng.Intn(len(nodes)-1)]
		s := Extract(g, root, true)
		before := g.NumNodes()
		for _, v := range s.Members {
			g.RemoveNode(v)
		}
		if g.NumNodes() != before-s.NumNodes() {
			return false
		}
		if _, err := s.InsertNodes(g); err != nil {
			return false
		}
		return g.NumNodes() == before && g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestMalformedSubgraphRejected feeds InsertNodes and BuildGraph each
// shape whose parts disagree: both must return ErrBadSubgraph, not panic,
// and leave the host graph as it was.
func TestMalformedSubgraphRejected(t *testing.T) {
	cases := []struct {
		name string
		edit func(s *Subgraph)
	}{
		{"internal edge past the last node", func(s *Subgraph) { s.Edges = append(s.Edges, [2]int32{0, int32(len(s.Labels))}) }},
		{"internal edge from a negative node", func(s *Subgraph) { s.Edges[0][0] = -1 }},
		{"values shorter than labels", func(s *Subgraph) { s.Values = s.Values[:len(s.Values)-1] }},
		{"edge kinds shorter than edges", func(s *Subgraph) { s.EdgeKinds = s.EdgeKinds[:len(s.EdgeKinds)-1] }},
		{"cross-in local out of range", func(s *Subgraph) { s.CrossIn[0].Local = int32(len(s.Labels)) }},
		{"cross-out local out of range", func(s *Subgraph) { s.CrossOut[0].Local = int32(len(s.Labels)) + 7 }},
		{"cross-out local negative", func(s *Subgraph) { s.CrossOut[0].Local = -1 }},
	}
	for _, tc := range cases {
		g, sub := buildHost(t)
		s := Extract(g, sub, true)
		if err := s.Check(); err != nil {
			t.Fatalf("%s: the extracted subgraph fails Check: %v", tc.name, err)
		}
		tc.edit(s)
		before := g.Clone().Freeze()
		if _, err := s.InsertNodes(g); !errors.Is(err, ErrBadSubgraph) {
			t.Errorf("%s: InsertNodes error %v, want ErrBadSubgraph", tc.name, err)
		}
		if _, _, err := s.BuildGraph(g.Labels()); !errors.Is(err, ErrBadSubgraph) {
			t.Errorf("%s: BuildGraph error %v, want ErrBadSubgraph", tc.name, err)
		}
		if d := refOf(g).diff(before); d != "" {
			t.Errorf("%s: the host graph changed: %s", tc.name, d)
		}
	}
}
