package graph

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestInterner(t *testing.T) {
	in := NewInterner()
	a := in.Intern("a")
	b := in.Intern("b")
	if a == b {
		t.Fatalf("distinct labels interned to same id")
	}
	if got := in.Intern("a"); got != a {
		t.Errorf("re-interning a: got %d want %d", got, a)
	}
	if in.Name(a) != "a" || in.Name(b) != "b" {
		t.Errorf("Name round-trip failed")
	}
	if _, ok := in.Lookup("c"); ok {
		t.Errorf("Lookup of unknown label succeeded")
	}
	if in.Len() != 2 { // ROOT is not auto-interned by NewInterner
		t.Errorf("Len = %d, want 2 (a, b)", in.Len())
	}
}

func TestInternerLenCountsOnlyInterned(t *testing.T) {
	in := NewInterner()
	if in.Len() != 0 {
		t.Fatalf("fresh interner Len = %d, want 0", in.Len())
	}
	in.Intern("x")
	in.Intern("x")
	if in.Len() != 1 {
		t.Fatalf("Len = %d, want 1", in.Len())
	}
}

func TestAddNodeAndEdge(t *testing.T) {
	g := New()
	r := g.AddRoot()
	a := g.AddNode("a")
	b := g.AddNode("b")
	if err := g.AddEdge(r, a, Tree); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(r, b, Tree); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(a, b, IDRef); err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 3 || g.NumIDRefEdges() != 1 {
		t.Fatalf("counts: nodes=%d edges=%d idref=%d", g.NumNodes(), g.NumEdges(), g.NumIDRefEdges())
	}
	if !g.HasEdge(a, b) || g.HasEdge(b, a) {
		t.Errorf("HasEdge direction wrong")
	}
	if k, ok := g.EdgeKindOf(a, b); !ok || k != IDRef {
		t.Errorf("EdgeKindOf(a,b) = %v,%v", k, ok)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestAddEdgeRejectsDuplicatesAndSelfLoops(t *testing.T) {
	g := New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	if err := g.AddEdge(a, b, Tree); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(a, b, Tree); err != ErrEdgeExists {
		t.Errorf("duplicate edge: got %v, want ErrEdgeExists", err)
	}
	if err := g.AddEdge(a, b, IDRef); err != ErrEdgeExists {
		t.Errorf("duplicate edge different kind: got %v, want ErrEdgeExists", err)
	}
	if err := g.AddEdge(a, a, Tree); err != ErrSelfLoop {
		t.Errorf("self-loop: got %v, want ErrSelfLoop", err)
	}
	if g.NumEdges() != 1 {
		t.Errorf("NumEdges = %d, want 1", g.NumEdges())
	}
}

func TestDeleteEdge(t *testing.T) {
	g := New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	if err := g.DeleteEdge(a, b); err != ErrNoEdge {
		t.Errorf("deleting absent edge: got %v, want ErrNoEdge", err)
	}
	if err := g.AddEdge(a, b, IDRef); err != nil {
		t.Fatal(err)
	}
	if err := g.DeleteEdge(a, b); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 0 || g.NumIDRefEdges() != 0 {
		t.Errorf("counts after delete: edges=%d idref=%d", g.NumEdges(), g.NumIDRefEdges())
	}
	if g.HasEdge(a, b) {
		t.Errorf("edge still present after delete")
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestRemoveNode(t *testing.T) {
	g := New()
	r := g.AddRoot()
	a := g.AddNode("a")
	b := g.AddNode("b")
	for _, e := range [][2]NodeID{{r, a}, {r, b}, {a, b}} {
		if err := g.AddEdge(e[0], e[1], Tree); err != nil {
			t.Fatal(err)
		}
	}
	g.RemoveNode(a)
	if g.Alive(a) {
		t.Errorf("node still alive after removal")
	}
	if g.NumNodes() != 2 || g.NumEdges() != 1 {
		t.Errorf("counts: nodes=%d edges=%d, want 2,1", g.NumNodes(), g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// IDs are not reused.
	c := g.AddNode("c")
	if c == a {
		t.Errorf("NodeID reused after removal")
	}
}

func TestRemoveRootClearsRoot(t *testing.T) {
	g := New()
	r := g.AddRoot()
	g.RemoveNode(r)
	if g.Root() != InvalidNode {
		t.Errorf("Root = %d after removing root, want InvalidNode", g.Root())
	}
}

func TestSuccPredIteration(t *testing.T) {
	g := New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	for _, e := range [][2]NodeID{{a, b}, {a, c}, {b, c}} {
		if err := g.AddEdge(e[0], e[1], Tree); err != nil {
			t.Fatal(err)
		}
	}
	succ := g.Succ(a)
	if len(succ) != 2 {
		t.Fatalf("Succ(a) = %v", succ)
	}
	pred := g.Pred(c)
	if len(pred) != 2 {
		t.Fatalf("Pred(c) = %v", pred)
	}
	if g.OutDegree(a) != 2 || g.InDegree(c) != 2 || g.InDegree(a) != 0 {
		t.Errorf("degrees wrong")
	}
	n := 0
	g.EachEdge(func(u, v NodeID, k EdgeKind) { n++ })
	if n != 3 {
		t.Errorf("EachEdge visited %d edges, want 3", n)
	}
}

func TestTopoOrder(t *testing.T) {
	g := New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	mustEdge(t, g, a, b)
	mustEdge(t, g, b, c)
	mustEdge(t, g, a, c)
	order, ok := g.TopoOrder()
	if !ok {
		t.Fatalf("acyclic graph reported cyclic")
	}
	pos := map[NodeID]int{}
	for i, v := range order {
		pos[v] = i
	}
	g.EachEdge(func(u, v NodeID, _ EdgeKind) {
		if pos[u] >= pos[v] {
			t.Errorf("edge %d->%d violates topo order", u, v)
		}
	})
	if !g.IsAcyclic() {
		t.Errorf("IsAcyclic = false")
	}
	// Close the cycle.
	mustEdge(t, g, c, a)
	if _, ok := g.TopoOrder(); ok {
		t.Errorf("cyclic graph reported acyclic")
	}
}

func TestReachable(t *testing.T) {
	g := New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	d := g.AddNode("d")
	mustEdge(t, g, a, b)
	mustEdge(t, g, b, c)
	if err := g.AddEdge(c, d, IDRef); err != nil {
		t.Fatal(err)
	}
	all := g.Reachable(a, false)
	if len(all) != 4 {
		t.Errorf("Reachable(all) = %v", all)
	}
	tree := g.Reachable(a, true)
	if len(tree) != 3 {
		t.Errorf("Reachable(tree-only) = %v, want 3 nodes", tree)
	}
}

func TestDescendantsWithin(t *testing.T) {
	g := New()
	// chain a -> b -> c -> d
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	d := g.AddNode("d")
	mustEdge(t, g, a, b)
	mustEdge(t, g, b, c)
	mustEdge(t, g, c, d)
	for depth, want := range map[int]int{0: 1, 1: 2, 2: 3, 3: 4, 5: 4} {
		if got := len(g.DescendantsWithin(a, depth)); got != want {
			t.Errorf("DescendantsWithin(depth=%d) = %d nodes, want %d", depth, got, want)
		}
	}
	if g.DescendantsWithin(a, -1) != nil {
		t.Errorf("negative depth should return nil")
	}
}

func TestClone(t *testing.T) {
	g := New()
	r := g.AddRoot()
	a := g.AddNode("a")
	mustEdge(t, g, r, a)
	cp := g.Clone()
	if cp.NumNodes() != g.NumNodes() || cp.NumEdges() != g.NumEdges() || cp.Root() != g.Root() {
		t.Fatalf("clone differs in counts or root")
	}
	// Mutating the clone must not affect the original.
	b := cp.AddNode("b")
	mustEdge(t, cp, a, b)
	if g.NumNodes() != 2 || g.NumEdges() != 1 {
		t.Errorf("original mutated by clone changes")
	}
	if err := cp.Validate(); err != nil {
		t.Fatalf("clone Validate: %v", err)
	}
}

func TestWriteDOT(t *testing.T) {
	g := New()
	r := g.AddRoot()
	a := g.AddNode("a")
	mustEdge(t, g, r, a)
	if err := g.AddEdge(a, r2(g), IDRef); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.WriteDOT(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"digraph G", "ROOT#0", "style=dashed"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
}

func r2(g *Graph) NodeID { return g.AddNode("x") }

// An edge into the root is accepted by AddEdge, so Validate must accept it
// too.
func TestValidateAcceptsRootInEdge(t *testing.T) {
	g := New()
	r := g.AddRoot()
	a := g.AddNode("a")
	mustEdge(t, g, r, a)
	if err := g.AddEdge(a, r, IDRef); err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate rejected an accepted root in-edge: %v", err)
	}
}

// Property: inserting then deleting a random edge leaves the edge set
// unchanged (insert∘delete idempotence).
func TestInsertDeleteIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 30, 60)
		before := g.EdgeListAll()
		// Find a non-edge to insert.
		var u, v NodeID
		for tries := 0; tries < 100; tries++ {
			u = NodeID(rng.Intn(30))
			v = NodeID(rng.Intn(30))
			if u != v && !g.HasEdge(u, v) {
				break
			}
		}
		if u == v || g.HasEdge(u, v) {
			return true // dense graph, skip
		}
		if err := g.AddEdge(u, v, IDRef); err != nil {
			return false
		}
		if err := g.DeleteEdge(u, v); err != nil {
			return false
		}
		after := g.EdgeListAll()
		if len(before) != len(after) {
			return false
		}
		for i := range before {
			if before[i] != after[i] {
				return false
			}
		}
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: Validate holds after arbitrary random edit sequences.
func TestRandomEditSequenceStaysValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 20, 30)
		for step := 0; step < 100; step++ {
			u := NodeID(rng.Intn(20))
			v := NodeID(rng.Intn(20))
			if !g.Alive(u) || !g.Alive(v) || u == v {
				continue
			}
			switch rng.Intn(3) {
			case 0:
				_ = g.AddEdge(u, v, EdgeKind(rng.Intn(2)))
			case 1:
				_ = g.DeleteEdge(u, v)
			case 2:
				if g.NumNodes() > 5 {
					g.RemoveNode(u)
				}
			}
		}
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestCompact(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomGraph(rng, 30, 40)
	g.SetRoot(func() NodeID { // pick a parentless node or make one
		r := g.AddNode("ROOT")
		return r
	}())
	g.SetValue(NodeID(3), "keep me")
	// Punch holes.
	for _, v := range []NodeID{5, 11, 17, 23} {
		g.RemoveNode(v)
	}
	before := g.NumNodes()
	ng, remap := g.Compact()
	if err := ng.Validate(); err != nil {
		t.Fatal(err)
	}
	if ng.NumNodes() != before || int(ng.MaxNodeID()) != before {
		t.Fatalf("compacted: %d nodes, id space %d, want %d dense", ng.NumNodes(), ng.MaxNodeID(), before)
	}
	if ng.NumEdges() != g.NumEdges() || ng.NumIDRefEdges() != g.NumIDRefEdges() {
		t.Errorf("edge counts changed")
	}
	// Structure preserved under the remap.
	g.EachEdge(func(u, v NodeID, kind EdgeKind) {
		if !ng.HasEdge(remap[u], remap[v]) {
			t.Errorf("edge %d->%d lost", u, v)
		}
	})
	g.EachNode(func(v NodeID) {
		if ng.LabelName(remap[v]) != g.LabelName(v) || ng.Value(remap[v]) != g.Value(v) {
			t.Errorf("node %d attributes changed", v)
		}
	})
	for _, dead := range []NodeID{5, 11, 17, 23} {
		if remap[dead] != InvalidNode {
			t.Errorf("dead node %d got a mapping", dead)
		}
	}
	if ng.Root() != remap[g.Root()] {
		t.Errorf("root not remapped")
	}
}

func randomGraph(rng *rand.Rand, n, m int) *Graph {
	g := New()
	labels := []string{"a", "b", "c", "d"}
	for i := 0; i < n; i++ {
		g.AddNode(labels[rng.Intn(len(labels))])
	}
	for i := 0; i < m; i++ {
		u := NodeID(rng.Intn(n))
		v := NodeID(rng.Intn(n))
		if u != v {
			_ = g.AddEdge(u, v, EdgeKind(rng.Intn(2)))
		}
	}
	return g
}

func mustEdge(t *testing.T, g *Graph, u, v NodeID) {
	t.Helper()
	if err := g.AddEdge(u, v, Tree); err != nil {
		t.Fatalf("AddEdge(%d,%d): %v", u, v, err)
	}
}

func BenchmarkAddEdge(b *testing.B) {
	g := New()
	const n = 10000
	for i := 0; i < n; i++ {
		g.AddNode("a")
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := NodeID(rng.Intn(n))
		v := NodeID(rng.Intn(n))
		if u == v {
			continue
		}
		if err := g.AddEdge(u, v, Tree); err == nil {
			_ = g.DeleteEdge(u, v)
		}
	}
}
