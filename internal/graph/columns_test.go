package graph

import (
	"errors"
	"strings"
	"testing"
)

// chain is r → a → b → c with a dead slot between a and b, b's value
// set and an IDREF c → a.
func chain(t *testing.T) *Graph {
	g := New()
	r := g.AddRoot()
	a, dead, b, c := g.AddNode("a"), g.AddNode("x"), g.AddNode("b"), g.AddNode("c")
	g.SetValue(b, "v")
	for _, e := range []EdgeOp{{U: r, V: a}, {U: a, V: b}, {U: b, V: c}, {U: c, V: a, Kind: IDRef}} {
		if err := g.AddEdge(e.U, e.V, e.Kind); err != nil {
			t.Fatal(err)
		}
	}
	g.RemoveNode(dead)
	return g
}

// TestFromColumnsRoundTrip rebuilds a graph from its columns, then writes
// to every node: each node's adjacency is its own slab cut, so growing or
// shrinking one list never shows in a neighbour's.
func TestFromColumnsRoundTrip(t *testing.T) {
	g := chain(t)
	h, err := FromColumns(g.Columns())
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	if h.NumNodes() != g.NumNodes() || h.NumEdges() != g.NumEdges() || h.NumIDRefEdges() != g.NumIDRefEdges() ||
		h.Root() != g.Root() || h.MaxNodeID() != g.MaxNodeID() || h.Value(3) != "v" {
		t.Fatalf("rebuilt %d nodes %d edges, root %d", h.NumNodes(), h.NumEdges(), h.Root())
	}
	for _, e := range [][2]NodeID{{0, 3}, {0, 4}, {1, 4}, {4, 3}} {
		if err := h.AddEdge(e[0], e[1], Tree); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.DeleteEdge(1, 3); err != nil {
		t.Fatal(err)
	}
	v := h.AddNode("d")
	if err := h.AddEdge(3, v, Tree); err != nil {
		t.Fatal(err)
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	want := [][2]NodeID{{0, 1}, {0, 3}, {0, 4}, {1, 4}, {3, 4}, {3, v}, {4, 1}, {4, 3}}
	if got := h.EdgeListAll(); len(got) != len(want) {
		t.Fatalf("edges %v, want %v", got, want)
	} else {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("edges %v, want %v", got, want)
			}
		}
	}
}

// TestFromColumnsRefuses checks each disagreement FromColumns reports
// instead of building a graph.
func TestFromColumnsRefuses(t *testing.T) {
	for _, c := range []struct {
		name, want string
		damage     func(*Columns)
		is         error
	}{
		{"short values", "columns of", func(c *Columns) { c.Value = c.Value[1:] }, nil},
		{"unknown label", "unknown label", func(c *Columns) { c.Label[1] = uint32(len(c.Labels)) + 1 }, nil},
		{"dead slot with a value", "dead slot", func(c *Columns) { c.Value[2] = "x" }, nil},
		{"degrees over edges", "exceed", func(c *Columns) { c.OutDeg[4]++ }, nil},
		{"degrees under edges", "sum to", func(c *Columns) { c.OutDeg[0]-- }, nil},
		{"dead root", "root", func(c *Columns) { c.Root = 2 }, nil},
		{"edge out of range", "invalid or deleted", func(c *Columns) { c.Edges[0] = EdgeCode(0, 99, Tree) }, nil},
		{"negative edge", "invalid or deleted", func(c *Columns) { c.Edges[0] = EdgeCode(0, -5, Tree) }, nil},
		{"edge into a dead slot", "invalid or deleted", func(c *Columns) { c.Edges[0] = EdgeCode(0, 2, Tree) }, nil},
		{"self-loop", "", func(c *Columns) { c.Edges[0] = EdgeCode(0, 0, Tree) }, ErrSelfLoop},
		{"parallel edge", "", func(c *Columns) { c.Edges[1], c.OutDeg[0], c.OutDeg[1] = c.Edges[0], 2, 0 }, ErrEdgeExists},
	} {
		t.Run(c.name, func(t *testing.T) {
			cols := chain(t).Columns()
			c.damage(cols)
			g, err := FromColumns(cols)
			if err == nil || !strings.Contains(err.Error(), c.want) || (c.is != nil && !errors.Is(err, c.is)) {
				t.Fatalf("built %v, error %v; want %q / %v", g != nil, err, c.want, c.is)
			}
		})
	}
}
