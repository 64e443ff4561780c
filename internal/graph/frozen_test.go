package graph

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
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
// and rebuilds with no touched list at all: the next view must carry every
// changed node — including one that is added and removed without ever
// having an edge — and leave the first view as it was.
func TestFrozenRebuildFromChangeRecord(t *testing.T) {
	g, n := buildDiamond(t)
	lone := g.AddNode("lone")
	f := g.Freeze()

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

// TestFreezeMidChain takes a second view between two writes: every view
// stays exactly the graph at its own Freeze, and a later view — taken by
// Freeze or by the Rebuild forwarder from the first view — carries both
// writes, the one before the second Freeze included.
func TestFreezeMidChain(t *testing.T) {
	g, n := buildDiamond(t)
	f1, ref1 := g.Freeze(), refOf(g)
	if err := g.AddEdge(n[3], n[1], IDRef); err != nil { // A
		t.Fatal(err)
	}
	f2, ref2 := g.Freeze(), refOf(g)
	g.SetValue(n[2], "B")

	want := refOf(g)
	for _, tc := range []struct {
		name string
		f    *Frozen
	}{{"f1.Rebuild", f1.Rebuild(g, nil)}, {"Freeze", g.Freeze()}} {
		assertFrozenEquals(t, tc.f, g)
		if d := want.diff(tc.f); d != "" {
			t.Fatalf("%s: %s", tc.name, d)
		}
	}
	if d := ref1.diff(f1); d != "" {
		t.Fatalf("first view changed: %s", d)
	}
	if d := ref2.diff(f2); d != "" {
		t.Fatalf("second view changed: %s", d)
	}
}

// TestFrozenReadersDuringWrites runs readers over successive views while
// one writer drives every mutator — node additions across page boundaries,
// new labels, edge inserts and deletes, values, node removals — and
// freezes after each step. Each view must match, every time a reader
// looks, the deep copy captured when it was frozen. Run it under -race.
func TestFrozenReadersDuringWrites(t *testing.T) {
	type view struct {
		f   *Frozen
		ref *frozenRef
	}
	g, n := buildDiamond(t)
	var cur atomic.Pointer[view]
	cur.Store(&view{g.Freeze(), refOf(g)})
	var done atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var held []*view
			for !done.Load() {
				if h := cur.Load(); len(held) == 0 || held[len(held)-1] != h {
					held = append(held, h)
				}
				if len(held) > 8 {
					held = held[1:]
				}
				for _, h := range held {
					if d := h.ref.diff(h.f); d != "" {
						t.Errorf("view changed under a reader: %s", d)
						return
					}
				}
			}
		}()
	}

	rng := rand.New(rand.NewSource(1))
	live := append([]NodeID(nil), n...)
	pick := func() NodeID { return live[rng.Intn(len(live))] }
	for step := 0; step < 400; step++ {
		switch rng.Intn(6) {
		case 0, 1: // a run of new nodes, some under new labels
			for i := rng.Intn(cow.PageSize / 2); i >= 0; i-- {
				parent := pick()
				v := g.AddNodeL(g.Labels().Intern(fmt.Sprintf("l%d", rng.Intn(step+2))))
				if err := g.AddEdge(parent, v, Tree); err != nil {
					t.Fatal(err)
				}
				live = append(live, v)
			}
		case 2:
			if err := g.AddEdge(pick(), pick(), IDRef); err != nil && !errors.Is(err, ErrEdgeExists) && !errors.Is(err, ErrSelfLoop) {
				t.Fatal(err)
			}
		case 3:
			if u := pick(); g.OutDegree(u) > 0 {
				if err := g.DeleteEdge(u, g.Succ(u)[0]); err != nil {
					t.Fatal(err)
				}
			}
		case 4:
			g.SetValue(pick(), fmt.Sprintf("v%d", step))
		case 5:
			if i := 1 + rng.Intn(len(live)-1); len(live) > 4 { // never the root
				g.RemoveNode(live[i])
				live = slices.Delete(live, i, i+1)
			}
		}
		cur.Store(&view{g.Freeze(), refOf(g)})
	}
	done.Store(true)
	wg.Wait()
	if g.MaxNodeID() < 3*cow.PageSize {
		t.Fatalf("the writer stayed within %d slots", g.MaxNodeID())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// frozenRef is a deep copy of a graph's state that shares nothing with
// the graph, its label interner included.
type frozenRef struct {
	root  NodeID
	edges int
	nodes []refNode // by NodeID
}

type refNode struct {
	alive        bool
	label, value string
	succ, pred   []Edge
}

func refOf(g *Graph) *frozenRef {
	r := &frozenRef{root: g.Root(), edges: g.NumEdges(), nodes: make([]refNode, g.MaxNodeID())}
	g.EachNode(func(v NodeID) {
		n := g.rec(v)
		r.nodes[v] = refNode{true, g.LabelName(v), n.value, slices.Clone(n.succ), slices.Clone(n.pred)}
	})
	return r
}

// diff describes the first difference between f and r, "" if none;
// adjacency must match in order.
func (r *frozenRef) diff(f *Frozen) string {
	if f.Root() != r.root || f.NumEdges() != r.edges || f.MaxNodeID() != NodeID(len(r.nodes)) {
		return fmt.Sprintf("header: root %d/%d edges %d/%d max %d/%d", f.Root(), r.root, f.NumEdges(), r.edges, f.MaxNodeID(), len(r.nodes))
	}
	alive := 0
	for i, want := range r.nodes {
		v := NodeID(i)
		var got refNode
		if got.alive = f.Alive(v); got.alive {
			alive++
			got.label, got.value = f.LabelName(v), f.Value(v)
			f.EachSucc(v, func(w NodeID, k EdgeKind) { got.succ = append(got.succ, Edge{w, k}) })
			f.EachPred(v, func(u NodeID, k EdgeKind) { got.pred = append(got.pred, Edge{u, k}) })
		}
		if got.alive != want.alive || got.label != want.label || got.value != want.value ||
			!slices.Equal(got.succ, want.succ) || !slices.Equal(got.pred, want.pred) {
			return fmt.Sprintf("node %d: %+v, want %+v", v, got, want)
		}
	}
	if alive != f.NumNodes() {
		return fmt.Sprintf("%d live nodes, NumNodes %d", alive, f.NumNodes())
	}
	return ""
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
