package persist

import (
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"structix/internal/graph"
)

// view is what the per-node encoders read of a graph; *graph.Graph and
// *graph.Frozen both satisfy it.
type view interface {
	Root() graph.NodeID
	MaxNodeID() graph.NodeID
	NumEdges() int
	Alive(graph.NodeID) bool
	LabelName(graph.NodeID) string
	Value(graph.NodeID) string
	EachSucc(graph.NodeID, func(graph.NodeID, graph.EdgeKind))
	AllowSelfLoops() bool
}

// perNodeColumns is the graph encoder as it was before Columns: one
// interface call per node and field, labels numbered in first-seen order
// through a map of names. TestColumnsOfViews holds Columns to it.
func perNodeColumns(g view) *graph.Columns {
	n := g.MaxNodeID()
	c := &graph.Columns{Root: int32(g.Root()), AllowLoops: g.AllowSelfLoops(), Label: make([]uint32, n),
		Value: make([]string, n), OutDeg: make([]uint32, n), Edges: make([]int64, 0, g.NumEdges())}
	ids := make(map[string]uint32)
	for v := graph.NodeID(0); v < n; v++ {
		if !g.Alive(v) {
			continue
		}
		name := g.LabelName(v)
		if ids[name] == 0 {
			c.Labels = append(c.Labels, name)
			ids[name] = uint32(len(c.Labels))
		}
		c.Label[v], c.Value[v] = ids[name], g.Value(v)
		from := len(c.Edges)
		g.EachSucc(v, func(w graph.NodeID, kind graph.EdgeKind) {
			c.Edges = append(c.Edges, graph.EdgeCode(v, w, kind))
		})
		c.OutDeg[v] = uint32(len(c.Edges) - from)
	}
	return c
}

// churn runs steps random graph writes: nodes under random parents,
// labelled from a pool interned in reverse so first-seen order differs
// from LabelID order; IDREF edges (self-loops among them when allowed);
// edge deletes; values; and node removals, which leave dead slots and,
// once a label's first nodes are gone, move it in the first-seen order.
func churn(rng *rand.Rand, g *graph.Graph, steps, labels int) {
	for l := labels - 1; l >= 0; l-- {
		g.Labels().Intern("l" + strconv.Itoa(l))
	}
	for i := 0; i < steps; i++ {
		nodes := g.Nodes()
		u := nodes[rng.Intn(len(nodes))]
		switch rng.Intn(6) {
		case 0, 1:
			v := g.AddNode("l" + strconv.Itoa(rng.Intn(labels)))
			_ = g.AddEdge(u, v, graph.Tree)
		case 2:
			_ = g.AddEdge(u, nodes[rng.Intn(len(nodes))], graph.IDRef)
		case 3:
			if s := g.Succ(u); len(s) > 0 {
				_ = g.DeleteEdge(u, s[rng.Intn(len(s))])
			}
		case 4:
			g.SetValue(u, "v"+strconv.Itoa(i))
		case 5:
			if u != g.Root() {
				g.RemoveNode(u)
			}
		}
	}
}

// TestColumnsOfViews holds Graph.Columns and Frozen.Columns to the
// per-node encoder on churned graphs under both self-loop policies: the
// live graph, a view frozen midway and read again after more churn, and
// a view of the end state; and checks FromColumns(g.Columns()) rebuilds a
// graph with the same columns.
func TestColumnsOfViews(t *testing.T) {
	for _, loops := range []bool{false, true} {
		for seed := int64(0); seed < 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			g := graph.New()
			g.SetAllowSelfLoops(loops)
			g.AddRoot()
			churn(rng, g, 300, 7)
			mid, midCols := g.Freeze(), g.Columns()
			churn(rng, g, 300, 11)
			end := g.Freeze()
			churn(rng, g, 50, 13)
			if g.NumNodes() == int(g.MaxNodeID()) {
				t.Fatalf("loops=%v seed %d: the churn left no dead slot", loops, seed)
			}
			for _, c := range []struct {
				name string
				got  *graph.Columns
				of   view
			}{{"live", g.Columns(), g}, {"mid", mid.Columns(), mid}, {"end", end.Columns(), end}} {
				if want := perNodeColumns(c.of); !reflect.DeepEqual(c.got, want) {
					t.Fatalf("loops=%v seed %d %s: Columns differs from the per-node encoder", loops, seed, c.name)
				}
			}
			if !reflect.DeepEqual(mid.Columns(), midCols) {
				t.Fatalf("loops=%v seed %d: a view's columns moved under later writes", loops, seed)
			}
			h, err := graph.FromColumns(g.Columns())
			if err != nil {
				t.Fatal(err)
			}
			if err := h.Validate(); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(h.Columns(), g.Columns()) {
				t.Fatalf("loops=%v seed %d: FromColumns(g.Columns()) does not round-trip", loops, seed)
			}
		}
	}
}
