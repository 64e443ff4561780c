package shard

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"structix/internal/graph"
	"structix/internal/maint"
	"structix/internal/opscript"
	"structix/internal/wal"
)

func TestCodecRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 8} {
		r := NewRouter(n)
		for s := 0; s < n; s++ {
			for _, l := range []graph.NodeID{0, 1, 2, 77, 1 << 20} {
				g := r.GlobalOf(s, l)
				if r.ShardOf(g) != s || r.LocalOf(g) != l {
					t.Fatalf("n=%d: roundtrip (%d,%d) -> %d -> (%d,%d)", n, s, l, g, r.ShardOf(g), r.LocalOf(g))
				}
			}
		}
	}
	// n=1 is the identity codec.
	r := NewRouter(1)
	if r.GlobalOf(0, 42) != 42 || r.LocalOf(42) != 42 || r.ShardOf(42) != 0 {
		t.Fatal("1-shard codec is not the identity")
	}
	// Invalid ids pass through without panicking.
	if r.ShardOf(graph.InvalidNode) != 0 || r.LocalOf(graph.InvalidNode) != graph.InvalidNode {
		t.Fatal("invalid id not passed through")
	}
}

func TestPlaceDeterministicAndInRange(t *testing.T) {
	r := NewRouter(4)
	labels := []string{"site", "people", "regions", "open_auctions", "item", "person"}
	for _, lbl := range labels {
		a, b := r.Place(lbl), r.Place(lbl)
		if a != b {
			t.Fatalf("Place(%q) not deterministic: %d vs %d", lbl, a, b)
		}
		if a < 0 || a >= 4 {
			t.Fatalf("Place(%q) = %d out of range", lbl, a)
		}
	}
	// Ordinals spread same-labeled subtrees: over enough ordinals every
	// shard must be hit at least once.
	hit := make(map[int]bool)
	for ord := 0; ord < 64; ord++ {
		hit[r.PlaceOrdinal("site", ord)] = true
	}
	if len(hit) != 4 {
		t.Fatalf("PlaceOrdinal covers %d/4 shards", len(hit))
	}
}

func testMap(t *testing.T, n int) *Map {
	t.Helper()
	roots := make([]graph.NodeID, n)
	return NewMap(NewRouter(n), roots) // fresh shard graphs all root at 0
}

func TestMapRootIdentity(t *testing.T) {
	m := testMap(t, 4)
	if m.GlobalRoot() != 0 {
		t.Fatalf("global root = %d, want 0", m.GlobalRoot())
	}
	for s := 0; s < 4; s++ {
		if got := m.ToGlobal(s, m.LocalRoot(s)); got != m.GlobalRoot() {
			t.Fatalf("shard %d root -> %d, want the global root", s, got)
		}
	}
	s, l := m.Resolve(m.GlobalRoot())
	if s != 0 || l != m.LocalRoot(0) {
		t.Fatalf("Resolve(root) = (%d,%d)", s, l)
	}
}

func TestRouteEdge(t *testing.T) {
	m := testMap(t, 4)
	r := m.Router()

	// Both endpoints on shard 2.
	u, v := r.GlobalOf(2, 5), r.GlobalOf(2, 9)
	s, lu, lv, err := m.RouteEdge(u, v)
	if err != nil || s != 2 || lu != 5 || lv != 9 {
		t.Fatalf("same-shard edge: (%d,%d,%d,%v)", s, lu, lv, err)
	}

	// Root endpoint follows the other end, translating to that shard's
	// own root replica.
	s, lu, lv, err = m.RouteEdge(m.GlobalRoot(), v)
	if err != nil || s != 2 || lu != m.LocalRoot(2) || lv != 9 {
		t.Fatalf("root->child edge: (%d,%d,%d,%v)", s, lu, lv, err)
	}
	s, lu, lv, err = m.RouteEdge(u, m.GlobalRoot())
	if err != nil || s != 2 || lu != 5 || lv != m.LocalRoot(2) {
		t.Fatalf("child->root edge: (%d,%d,%d,%v)", s, lu, lv, err)
	}

	// Cross-shard is refused.
	if _, _, _, err = m.RouteEdge(r.GlobalOf(1, 3), r.GlobalOf(2, 3)); !errors.Is(err, ErrCrossShard) {
		t.Fatalf("cross-shard edge: err = %v, want ErrCrossShard", err)
	}
}

func TestSplitEdges(t *testing.T) {
	m := testMap(t, 2)
	r := m.Router()
	ops := []graph.EdgeOp{
		graph.InsertOp(r.GlobalOf(0, 1), r.GlobalOf(0, 2), graph.Tree),
		graph.InsertOp(r.GlobalOf(1, 1), r.GlobalOf(1, 2), graph.IDRef),
		graph.DeleteOp(r.GlobalOf(0, 1), r.GlobalOf(0, 2)),
	}
	parts, err := m.SplitEdges(ops)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 2 || parts[0].Shard != 0 || parts[1].Shard != 1 {
		t.Fatalf("split into %+v", parts)
	}
	per := [][]graph.EdgeOp{parts[0].Rec.Edges, parts[1].Rec.Edges}
	if len(per[0]) != 2 || len(per[1]) != 1 {
		t.Fatalf("split sizes %d/%d", len(per[0]), len(per[1]))
	}
	if !reflect.DeepEqual(parts[0].Orig, []int{0, 2}) || !reflect.DeepEqual(parts[1].Orig, []int{1}) {
		t.Fatalf("orig indexes %v %v", parts[0].Orig, parts[1].Orig)
	}
	if per[0][0].U != 1 || per[0][0].V != 2 || !per[0][0].Insert {
		t.Fatalf("translated op %+v", per[0][0])
	}

	// Re-base a shard-local rejection back into the caller's frame.
	be := &graph.BatchError{OpIndex: 1, Op: per[0][1], Err: graph.ErrNoEdge}
	got := m.Globalize(parts[0], be)
	var gbe *graph.BatchError
	if !errors.As(got, &gbe) || gbe.OpIndex != 2 || gbe.Op.U != ops[2].U || !errors.Is(gbe.Err, graph.ErrNoEdge) {
		t.Fatalf("globalized batch error %v", got)
	}
}

// TestRouteRejectsTyped: a record that would span shards is refused in
// the caller's coordinates, and a record with no op has no parts.
func TestRouteRejectsTyped(t *testing.T) {
	m := testMap(t, 2)
	r := m.Router()
	ops := []graph.EdgeOp{
		graph.InsertOp(r.GlobalOf(0, 1), r.GlobalOf(0, 2), graph.Tree),
		graph.InsertOp(r.GlobalOf(0, 1), r.GlobalOf(1, 2), graph.IDRef),
	}
	_, err := m.Route(&wal.Record{Kind: wal.RecEdges, Edges: ops})
	var be *graph.BatchError
	if !errors.As(err, &be) || be.OpIndex != 1 || be.Op != ops[1] || !errors.Is(err, ErrCrossShard) {
		t.Fatalf("cross-shard batch err = %v, want op 1 ErrCrossShard", err)
	}
	for _, n := range []int{1, 2} {
		for _, rec := range []*wal.Record{
			{Kind: wal.RecEdges},
			{Kind: wal.RecScript},
			{Kind: wal.RecSubgraph, Sub: &wal.SubgraphPayload{}},
		} {
			if parts, err := testMap(t, n).Route(rec); parts != nil || err != nil {
				t.Fatalf("%d shards: empty %v record: %v, %v", n, rec.Kind, parts, err)
			}
		}
	}
}

// TestFold: the parts' results sum, their new ids globalize in part
// order, and the first failing part's error comes back re-based — node
// ids inside its cause included.
func TestFold(t *testing.T) {
	m := testMap(t, 3)
	r := m.Router()
	parts := []Part{{Shard: 0}, {Shard: 1}, {Shard: 2}}
	dead := &maint.NodeError{Text: "maint: node %d", Node: 4, Err: graph.ErrDeadNode}
	outs := []Outcome{
		{Res: opscript.Result{Applied: 2, Inserted: 1, NewNodes: []graph.NodeID{4}}},
		{Res: opscript.Result{Applied: 1, Removed: 3}, Err: &opscript.OpError{Index: 1, Op: opscript.Op{Kind: opscript.DelNode, U: 4}, Err: dead}},
		{Err: graph.ErrNoEdge},
	}
	res, err := m.Fold(parts, outs)
	want := opscript.Result{Applied: 3, Inserted: 1, Removed: 3, NewNodes: []graph.NodeID{r.GlobalOf(0, 4)}}
	if !reflect.DeepEqual(res, want) {
		t.Fatalf("folded %+v, want %+v", res, want)
	}
	var oe *opscript.OpError
	var ne *maint.NodeError
	g := r.GlobalOf(1, 4)
	if !errors.As(err, &oe) || oe.Op.U != g || !errors.As(err, &ne) || ne.Node != g || !errors.Is(err, graph.ErrDeadNode) {
		t.Fatalf("folded error %v, want op and node %d", err, g)
	}
	if want := fmt.Sprintf("opscript: op 2 (delnode): maint: node %d: graph: no such live node", g); err.Error() != want {
		t.Fatalf("folded error %q, want %q", err, want)
	}
}

func TestRouteScript(t *testing.T) {
	m := testMap(t, 4)
	r := m.Router()
	routeScript := func(ops []opscript.Op) (int, []opscript.Op, error) {
		parts, err := m.Route(&wal.Record{Kind: wal.RecScript, Script: ops})
		if err != nil {
			return 0, nil, err
		}
		return parts[0].Shard, parts[0].Rec.Script, nil
	}

	// A subtree graft under the root routes by label placement.
	home := r.Place("person")
	ops := []opscript.Op{
		{Kind: opscript.AddNode, Label: "person", V: m.GlobalRoot()},
		{Kind: opscript.AddNode, Label: "name", V: r.GlobalOf(home, 7)},
	}
	s, local, err := routeScript(ops)
	if err != nil || s != home {
		t.Fatalf("graft script: shard %d err %v, want %d", s, err, home)
	}
	if local[0].V != m.LocalRoot(home) || local[1].V != 7 {
		t.Fatalf("translated script %+v", local)
	}

	// Ops pinned to different shards are refused.
	bad := []opscript.Op{
		{Kind: opscript.DelNode, U: r.GlobalOf(1, 5)},
		{Kind: opscript.DelNode, U: r.GlobalOf(2, 5)},
	}
	var oe *opscript.OpError
	if _, _, err := routeScript(bad); !errors.As(err, &oe) || oe.Index != 1 || oe.Op != bad[1] || !errors.Is(err, ErrCrossShard) {
		t.Fatalf("cross-shard script err = %v, want op 1 ErrCrossShard", err)
	}
	// An edge op across shards is refused at that op, in caller ids.
	mixed := []opscript.Op{bad[0], {Kind: opscript.Insert, U: r.GlobalOf(1, 5), V: r.GlobalOf(2, 5)}}
	if _, _, err := routeScript(mixed); !errors.As(err, &oe) || oe.Index != 1 || oe.Op != mixed[1] || !errors.Is(err, ErrCrossShard) {
		t.Fatalf("cross-shard edge in script err = %v, want op 1 ErrCrossShard", err)
	}

	// DelSub of a whole top-level subtree routes by the target.
	one := []opscript.Op{{Kind: opscript.DelSub, U: r.GlobalOf(3, 11)}}
	if s, local, err = routeScript(one); err != nil || s != 3 || local[0].U != 11 {
		t.Fatalf("delsub route (%d,%+v,%v)", s, local, err)
	}
}

// TestSplitPreservesGraph checks the bootstrap partitioner: every alive
// non-root node lands on exactly one shard with its label and value, and
// every edge is preserved (root edges against each shard's own root).
func TestSplitPreservesGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := graph.New()
	root := g.AddRoot()
	// 12 top-level subtrees, some same-labeled, each a small tree plus
	// intra-component IDREFs.
	labels := []string{"a", "b", "c"}
	var members [][]graph.NodeID
	for i := 0; i < 12; i++ {
		top := g.AddNode(labels[i%len(labels)])
		g.AddEdge(root, top, graph.Tree)
		comp := []graph.NodeID{top}
		for j := 0; j < 5; j++ {
			c := g.AddNode("x")
			g.SetValue(c, "v")
			g.AddEdge(comp[rng.Intn(len(comp))], c, graph.Tree)
			comp = append(comp, c)
		}
		g.AddEdge(comp[len(comp)-1], comp[1], graph.IDRef)
		members = append(members, comp)
	}
	// Kill one node so dead-id mapping is exercised.
	dead := members[0][len(members[0])-1]
	g.EachPred(dead, func(u graph.NodeID, _ graph.EdgeKind) { g.DeleteEdge(u, dead) })
	g.EachSucc(dead, func(w graph.NodeID, _ graph.EdgeKind) { g.DeleteEdge(dead, w) })
	g.RemoveNode(dead)

	const n = 4
	r := NewRouter(n)
	parts, mapping := Split(g, r)
	if len(parts) != n {
		t.Fatalf("%d parts", len(parts))
	}
	if mapping[dead] != graph.InvalidNode {
		t.Fatalf("dead node mapped to %d", mapping[dead])
	}

	roots := make([]graph.NodeID, n)
	for s, p := range parts {
		roots[s] = p.Root()
	}
	m := NewMap(r, roots)

	nodes, edges := 0, 0
	for s, p := range parts {
		nodes += p.NumNodes() - 1 // each shard carries a root replica
		edges += p.NumEdges()
		if p.Root() != 0 {
			t.Fatalf("shard %d root at %d", s, p.Root())
		}
		_ = s
	}
	if want := g.NumNodes() - 1; nodes != want {
		t.Fatalf("nodes %d want %d", nodes, want)
	}
	if edges != g.NumEdges() {
		t.Fatalf("edges %d want %d", edges, g.NumEdges())
	}

	// Components stay whole, labels/values survive, and every old edge
	// exists in the translated space.
	for _, comp := range members {
		wantShard := -1
		for _, v := range comp {
			if !g.Alive(v) {
				continue
			}
			s, l := m.Resolve(mapping[v])
			if wantShard == -1 {
				wantShard = s
			} else if s != wantShard {
				t.Fatalf("component split across shards %d/%d", wantShard, s)
			}
			p := parts[s]
			if p.LabelName(l) != g.LabelName(v) || p.Value(l) != g.Value(v) {
				t.Fatalf("node %d label/value mismatch", v)
			}
		}
	}
	g.EachEdge(func(u, v graph.NodeID, kind graph.EdgeKind) {
		var s int
		var lu, lv graph.NodeID
		if u == root {
			s, lv = m.Resolve(mapping[v])
			lu = parts[s].Root()
		} else {
			s, lu = m.Resolve(mapping[u])
			_, lv = m.Resolve(mapping[v])
		}
		if k, ok := parts[s].EdgeKindOf(lu, lv); !ok || k != kind {
			t.Fatalf("edge %d->%d missing on shard %d", u, v, s)
		}
	})
}
