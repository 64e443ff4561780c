package maint_test

import (
	"errors"
	"testing"

	"structix/internal/akindex"
	"structix/internal/graph"
	"structix/internal/gtest"
	"structix/internal/oneindex"
)

// family is the surface these tests drive on either index family.
type family interface {
	gtest.Maintained
	Size() int
	Validate() error
}

var families = []struct {
	name  string
	build func(*graph.Graph) family
}{
	{"1-index", func(g *graph.Graph) family { return oneindex.Build(g) }},
	{"A(2)", func(g *graph.Graph) family { return akindex.Build(g, 2) }},
}

// unchanged fails unless x still has n nodes, e edges, index size size and
// a live root, and validates.
func unchanged(t *testing.T, x family, n, e, size int) {
	t.Helper()
	g := x.Graph()
	if g.NumNodes() != n || g.NumEdges() != e || x.Size() != size || !g.Alive(g.Root()) {
		t.Fatalf("rejected op changed the store: %d nodes, %d edges, %d inodes, root %d alive %v; want %d, %d, %d",
			g.NumNodes(), g.NumEdges(), x.Size(), g.Root(), g.Alive(g.Root()), n, e, size)
	}
	if err := x.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestDeleteRootRejected deletes the graph root every way there is, on
// both families: each is graph.ErrRootNode and changes nothing. Only a
// root with no other node left may go.
func TestDeleteRootRejected(t *testing.T) {
	for _, fam := range families {
		t.Run(fam.name, func(t *testing.T) {
			g, _, _, ids := gtest.Fig2()
			x := fam.build(g)
			root := g.Root()
			// A tree edge into the root puts it in node 2's tree-edge subtree.
			if err := x.ApplyBatch([]graph.EdgeOp{graph.InsertOp(ids["2"], root, graph.Tree)}); err != nil {
				t.Fatal(err)
			}
			n, e, size := g.NumNodes(), g.NumEdges(), x.Size()
			if err := x.DeleteNode(root); !errors.Is(err, graph.ErrRootNode) {
				t.Fatalf("DeleteNode(root) = %v, want ErrRootNode", err)
			}
			unchanged(t, x, n, e, size)
			for _, v := range []graph.NodeID{root, ids["2"]} {
				for _, skip := range []bool{true, false} {
					if _, err := x.DeleteSubgraph(v, skip); !errors.Is(err, graph.ErrRootNode) {
						t.Fatalf("DeleteSubgraph(%d, %v) = %v, want ErrRootNode", v, skip, err)
					}
					unchanged(t, x, n, e, size)
				}
			}
			if ox, ok := x.(*oneindex.Index); ok {
				if _, err := ox.DeleteSubgraphViaMarker(ids["2"], true); !errors.Is(err, graph.ErrRootNode) {
					t.Fatalf("DeleteSubgraphViaMarker = %v, want ErrRootNode", err)
				}
				unchanged(t, x, n, e, size)
			}

			lone := graph.New()
			lone.SetRoot(lone.AddNode("root"))
			y := fam.build(lone)
			if err := y.DeleteNode(lone.Root()); err != nil {
				t.Fatalf("deleting a lone root: %v", err)
			}
			if lone.NumNodes() != 0 || y.Size() != 0 {
				t.Fatalf("lone root deletion left %d nodes, %d inodes", lone.NumNodes(), y.Size())
			}
		})
	}
}

// TestDeadNodeOpsTyped names a dead or never-allocated node as addnode
// parent, delnode node, delsub root and a grafted subgraph's cross-edge
// endpoint on both families: each is graph.ErrDeadNode and changes
// nothing, and so does a subgraph giving one cross edge twice
// (graph.ErrEdgeExists).
func TestDeadNodeOpsTyped(t *testing.T) {
	for _, fam := range families {
		t.Run(fam.name, func(t *testing.T) {
			g, _, _, ids := gtest.Fig2()
			x := fam.build(g)
			if err := x.DeleteNode(ids["8"]); err != nil {
				t.Fatal(err)
			}
			n, e, size := g.NumNodes(), g.NumEdges(), x.Size()
			for _, dead := range []graph.NodeID{ids["8"], 9999, -5} {
				if _, err := x.InsertNode(g.Labels().Intern("z"), dead, graph.Tree); !errors.Is(err, graph.ErrDeadNode) {
					t.Fatalf("InsertNode under %d = %v, want ErrDeadNode", dead, err)
				}
				if err := x.DeleteNode(dead); !errors.Is(err, graph.ErrDeadNode) {
					t.Fatalf("DeleteNode(%d) = %v, want ErrDeadNode", dead, err)
				}
				if _, err := x.DeleteSubgraph(dead, true); !errors.Is(err, graph.ErrDeadNode) {
					t.Fatalf("DeleteSubgraph(%d) = %v, want ErrDeadNode", dead, err)
				}
				// A cross edge to a dead node, into the subgraph root or
				// below it, out of it, fails before any node is added.
				l := g.Labels().Intern("z")
				for _, sg := range []*graph.Subgraph{
					{Labels: []graph.LabelID{l}, Values: []string{""}, CrossIn: []graph.CrossEdge{{Outside: dead, Kind: graph.Tree}}},
					{Labels: []graph.LabelID{l, l}, Values: []string{"", ""}, Edges: [][2]int32{{0, 1}}, EdgeKinds: []graph.EdgeKind{graph.Tree},
						CrossIn: []graph.CrossEdge{{Outside: g.Root(), Kind: graph.Tree}, {Outside: dead, Local: 1, Kind: graph.IDRef}}},
					{Labels: []graph.LabelID{l}, Values: []string{""}, CrossOut: []graph.CrossEdge{{Outside: dead, Kind: graph.IDRef}}},
				} {
					if _, err := x.AddSubgraph(sg); !errors.Is(err, graph.ErrDeadNode) {
						t.Fatalf("AddSubgraph with a cross edge to %d = %v, want ErrDeadNode", dead, err)
					}
				}
				unchanged(t, x, n, e, size)
			}
			l := g.Labels().Intern("z")
			twice := &graph.Subgraph{Labels: []graph.LabelID{l}, Values: []string{""},
				CrossOut: []graph.CrossEdge{{Outside: ids["2"], Kind: graph.IDRef}, {Outside: ids["2"], Kind: graph.Tree}}}
			if _, err := x.AddSubgraph(twice); !errors.Is(err, graph.ErrEdgeExists) {
				t.Fatalf("AddSubgraph with a cross edge twice = %v, want ErrEdgeExists", err)
			}
			unchanged(t, x, n, e, size)
		})
	}
}
