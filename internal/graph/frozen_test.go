package graph

import (
	"errors"
	"testing"

	"structix/internal/cow"
)

func buildDiamond(t *testing.T) (*Graph, []NodeID) {
	t.Helper()
	g := New()
	r := g.AddRoot()
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	for _, e := range [][2]NodeID{{r, a}, {r, b}, {a, c}, {b, c}} {
		if err := g.AddEdge(e[0], e[1], Tree); err != nil {
			t.Fatal(err)
		}
	}
	g.SetValue(c, "leaf")
	return g, []NodeID{r, a, b, c}
}

func TestValidateOps(t *testing.T) {
	g, n := buildDiamond(t)
	r, a, b, c := n[0], n[1], n[2], n[3]

	if err := g.ValidateOps(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	// Insert-then-delete of the same absent edge must validate.
	ok := []EdgeOp{InsertOp(c, a, IDRef), DeleteOp(c, a), InsertOp(c, a, IDRef)}
	if err := g.ValidateOps(ok); err != nil {
		t.Fatalf("insert/delete/insert of same edge rejected: %v", err)
	}
	// Delete-then-reinsert of a present edge must validate.
	if err := g.ValidateOps([]EdgeOp{DeleteOp(a, c), InsertOp(a, c, Tree)}); err != nil {
		t.Fatalf("delete/reinsert of present edge rejected: %v", err)
	}

	cases := []struct {
		name string
		ops  []EdgeOp
		idx  int
		want error
	}{
		{"duplicate insert of existing edge", []EdgeOp{InsertOp(r, a, Tree)}, 0, ErrEdgeExists},
		{"duplicate insert within batch", []EdgeOp{InsertOp(c, b, IDRef), InsertOp(c, b, IDRef)}, 1, ErrEdgeExists},
		{"delete missing edge", []EdgeOp{DeleteOp(c, r)}, 0, ErrNoEdge},
		{"delete twice within batch", []EdgeOp{DeleteOp(r, a), DeleteOp(r, a)}, 1, ErrNoEdge},
		{"self loop", []EdgeOp{InsertOp(a, a, IDRef)}, 0, ErrSelfLoop},
		{"dead node", []EdgeOp{InsertOp(a, NodeID(99), IDRef)}, 0, ErrDeadNode},
		{"late failure", []EdgeOp{InsertOp(c, a, IDRef), DeleteOp(c, a), DeleteOp(c, a)}, 2, ErrNoEdge},
	}
	for _, tc := range cases {
		err := g.ValidateOps(tc.ops)
		if err == nil {
			t.Errorf("%s: validated", tc.name)
			continue
		}
		var be *BatchError
		if !errors.As(err, &be) {
			t.Errorf("%s: error %v is not a *BatchError", tc.name, err)
			continue
		}
		if be.OpIndex != tc.idx {
			t.Errorf("%s: OpIndex = %d, want %d", tc.name, be.OpIndex, tc.idx)
		}
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: cause = %v, want %v", tc.name, be.Err, tc.want)
		}
	}

	// Validation must not have mutated the graph.
	if g.NumEdges() != 4 {
		t.Fatalf("ValidateOps mutated the graph: %d edges", g.NumEdges())
	}
}

func TestFrozenMatchesGraph(t *testing.T) {
	g, n := buildDiamond(t)
	f := g.Freeze()
	assertFrozenEquals(t, f, g)

	// Mutations after the freeze must not show through.
	if err := g.AddEdge(n[3], n[1], IDRef); err != nil {
		t.Fatal(err)
	}
	found := false
	f.EachSucc(n[3], func(w NodeID, _ EdgeKind) { found = found || w == n[1] })
	if found {
		t.Fatal("frozen view leaked a post-freeze edge")
	}

	// Rebuild with the touched endpoints catches up.
	f2 := f.Rebuild(g, []NodeID{n[3], n[1]})
	assertFrozenEquals(t, f2, g)
	// The old view is still as it was.
	if f.NumNodes() != 4 || countFrozenEdges(f) != 4 {
		t.Fatal("rebuild mutated the source frozen view")
	}
}

func TestFrozenRebuildDeadNode(t *testing.T) {
	g, n := buildDiamond(t)
	f := g.Freeze()
	g.RemoveNode(n[3])
	f2 := f.Rebuild(g, []NodeID{n[3], n[1], n[2]})
	if f2.Alive(n[3]) {
		t.Fatal("rebuilt view kept a dead node")
	}
	assertFrozenEquals(t, f2, g)
	if !f.Alive(n[3]) {
		t.Fatal("source view lost a node")
	}
}

// TestFrozenRebuildIgnoresOutOfRangeIDs pins the contract of the touched
// argument: ids outside the graph's id space — negative ones included —
// and duplicates are ignored.
func TestFrozenRebuildIgnoresOutOfRangeIDs(t *testing.T) {
	g, n := buildDiamond(t)
	f := g.Freeze()
	if err := g.AddEdge(n[3], n[1], IDRef); err != nil {
		t.Fatal(err)
	}
	f2 := f.Rebuild(g, []NodeID{InvalidNode, -7, n[3], n[3], g.MaxNodeID(), g.MaxNodeID() + 1000})
	assertFrozenEquals(t, f2, g)
	if f2.Alive(InvalidNode) || f2.Alive(g.MaxNodeID()) {
		t.Fatal("out-of-range id reads as alive")
	}
}

// TestFrozenRebuildFromChangeRecord drives every mutator after a Freeze
// and rebuilds with no touched list at all: the graph's own record must
// name every changed node — including one that is added and removed
// without ever having an edge — and a Rebuild must consume the record.
func TestFrozenRebuildFromChangeRecord(t *testing.T) {
	g, n := buildDiamond(t)
	lone := g.AddNode("lone")
	f := g.Freeze()
	if len(g.stale) != 0 {
		t.Fatalf("Freeze left %d nodes in the change record", len(g.stale))
	}

	g.RemoveNode(lone)
	g.SetValue(n[1], "changed")
	if err := g.DeleteEdge(n[2], n[3]); err != nil {
		t.Fatal(err)
	}
	var added []NodeID
	for i := 0; i < 3*cow.PageSize; i++ { // grow the id space across page boundaries
		v := g.AddNode("x")
		if err := g.AddEdge(n[3], v, Tree); err != nil {
			t.Fatal(err)
		}
		added = append(added, v)
	}
	g.RemoveNode(added[100])

	f2 := f.Rebuild(g, nil)
	assertFrozenEquals(t, f2, g)
	if f2.Alive(lone) || f2.Alive(added[100]) || f2.MaxNodeID() != g.MaxNodeID() {
		t.Fatal("rebuilt view kept a removed node or missed the id-space growth")
	}
	if len(g.stale) != 0 {
		t.Fatalf("Rebuild left %d nodes in the change record", len(g.stale))
	}
	if !f.Alive(lone) || f.Value(n[1]) != "" || f.MaxNodeID() != lone+1 {
		t.Fatal("rebuild mutated the source frozen view")
	}

	// Nothing changed: the next view shares every page.
	f3 := f2.Rebuild(g, nil)
	for i := 0; i < f3.nodes.Len(); i += cow.PageSize {
		if f3.nodes.At(i) != f2.nodes.At(i) {
			t.Fatalf("page of slot %d copied by an empty rebuild", i)
		}
	}
}

func assertFrozenEquals(t *testing.T, f *Frozen, g *Graph) {
	t.Helper()
	if f.Root() != g.Root() {
		t.Fatalf("root: frozen %d, graph %d", f.Root(), g.Root())
	}
	if f.NumNodes() != g.NumNodes() {
		t.Fatalf("nodes: frozen %d, graph %d", f.NumNodes(), g.NumNodes())
	}
	if f.NumEdges() != g.NumEdges() || countFrozenEdges(f) != g.NumEdges() {
		t.Fatalf("edges: frozen %d (walked %d), graph %d", f.NumEdges(), countFrozenEdges(f), g.NumEdges())
	}
	for v := NodeID(0); v < g.MaxNodeID(); v++ {
		if f.Alive(v) != g.Alive(v) {
			t.Fatalf("node %d: frozen alive=%v, graph alive=%v", v, f.Alive(v), g.Alive(v))
		}
	}
	g.EachNode(func(v NodeID) {
		if !f.Alive(v) {
			t.Fatalf("node %d missing from frozen view", v)
		}
		if f.LabelName(v) != g.LabelName(v) {
			t.Fatalf("node %d label: frozen %q, graph %q", v, f.LabelName(v), g.LabelName(v))
		}
		if f.Value(v) != g.Value(v) {
			t.Fatalf("node %d value mismatch", v)
		}
		want := map[NodeID]EdgeKind{}
		g.EachSucc(v, func(w NodeID, k EdgeKind) { want[w] = k })
		got := map[NodeID]EdgeKind{}
		f.EachSucc(v, func(w NodeID, k EdgeKind) { got[w] = k })
		if len(want) != len(got) {
			t.Fatalf("node %d succ: frozen %v, graph %v", v, got, want)
		}
		for w, k := range want {
			if gk, ok := got[w]; !ok || gk != k {
				t.Fatalf("node %d succ: frozen %v, graph %v", v, got, want)
			}
		}
		wantP := map[NodeID]bool{}
		g.EachPred(v, func(u NodeID, _ EdgeKind) { wantP[u] = true })
		gotP := map[NodeID]bool{}
		f.EachPred(v, func(u NodeID, _ EdgeKind) { gotP[u] = true })
		if len(wantP) != len(gotP) {
			t.Fatalf("node %d pred: frozen %v, graph %v", v, gotP, wantP)
		}
	})
}

func countFrozenEdges(f *Frozen) int {
	n := 0
	for v := NodeID(0); v < f.MaxNodeID(); v++ {
		f.EachSucc(v, func(NodeID, EdgeKind) { n++ })
	}
	return n
}
