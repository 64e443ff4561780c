package graph

import (
	"fmt"

	"structix/internal/cow"
)

// Columns is a graph laid out column by column: per NodeID, dead slots
// included, its label + 1 (0 for a dead slot), value and out-degree; per
// edge u→v of kind k, grouped by source in NodeID order, EdgeCode(u, v, k).
// It is the graph part of a version-2 persist stream, which gob-encodes
// this struct, so its field names are part of that format.
type Columns struct {
	Labels     []string // label names; Label[v]-1 indexes it
	Root       int32    // InvalidNode for none
	AllowLoops bool
	Label      []uint32
	Value      []string
	OutDeg     []uint32
	Edges      []int64
}

// Columns lays g out as columns, the inverse of FromColumns: records in
// NodeID order, and labels numbered in the order their first live node
// comes, so the table lists only labels in use. A graph loaded from them
// may therefore hold other LabelIDs than g; names, values, NodeIDs (dead
// slots included), edges, the root and the self-loop policy are g's.
func (g *Graph) Columns() *Columns {
	return columnsOf(g.nodes.Array(), g.labels.names, g.root, g.allowLoops, g.numEdges)
}

// Columns is Graph.Columns of the graph as it stood at Freeze.
func (f *Frozen) Columns() *Columns {
	return columnsOf(f.nodes, f.names, f.root, f.allowLoops, f.numEdges)
}

func columnsOf(nodes cow.Array[*node], names []string, root NodeID, allowLoops bool, m int) *Columns {
	n := nodes.Len()
	c := &Columns{Root: int32(root), AllowLoops: allowLoops, Label: make([]uint32, n),
		Value: make([]string, n), OutDeg: make([]uint32, n), Edges: make([]int64, 0, m)}
	ids := make([]uint32, len(names)) // LabelID → its Label entry, 0 until first seen
	for v := 0; v < n; v++ {
		r := *nodes.At(v)
		if !r.alive {
			continue
		}
		if ids[r.label] == 0 {
			c.Labels = append(c.Labels, names[r.label])
			ids[r.label] = uint32(len(c.Labels))
		}
		c.Label[v], c.Value[v], c.OutDeg[v] = ids[r.label], r.value, uint32(len(r.succ))
		for _, e := range r.succ {
			c.Edges = append(c.Edges, EdgeCode(NodeID(v), e.To, e.Kind))
		}
	}
	return c
}

// EdgeCode is an edge's entry in Columns.Edges: (v − u)·2 + kind.
func EdgeCode(u, v NodeID, kind EdgeKind) int64 { return (int64(v)-int64(u))*2 + int64(kind) }

// FromColumns builds the graph c describes, over a fresh interner. Any
// disagreement in c — unequal columns, an unknown label, a dead slot with
// a value or edges, a dead root, an edge out of the id space or into a
// dead slot, a self-loop the policy forbids, a parallel edge — is an error
// before the graph is allocated. Records and both adjacency directions are
// cut from slabs with full slice expressions, so an append to one node's
// edges reallocates instead of writing into its neighbour's.
func FromColumns(c *Columns) (*Graph, error) {
	n, m := len(c.Label), 0
	if len(c.Value) != n || len(c.OutDeg) != n {
		return nil, fmt.Errorf("graph: columns of %d labels, %d values, %d degrees", n, len(c.Value), len(c.OutDeg))
	}
	for v, l := range c.Label {
		if int64(l) > int64(len(c.Labels)) {
			return nil, fmt.Errorf("graph: node %d has unknown label %d", v, int64(l)-1)
		}
		if l == 0 && (c.OutDeg[v] != 0 || c.Value[v] != "") {
			return nil, fmt.Errorf("graph: dead slot %d has edges or a value", v)
		}
		if m += int(c.OutDeg[v]); m > len(c.Edges) {
			return nil, fmt.Errorf("graph: out-degrees exceed the %d edges", len(c.Edges))
		}
	}
	alive := func(v int64) bool { return v >= 0 && v < int64(n) && c.Label[v] != 0 }
	switch {
	case m != len(c.Edges):
		return nil, fmt.Errorf("graph: out-degrees sum to %d, %d edges", m, len(c.Edges))
	case c.Root != int32(InvalidNode) && !alive(int64(c.Root)):
		return nil, fmt.Errorf("graph: root %d is not a live node", c.Root)
	}
	// Check every edge and count in-degrees into predAt; seen[w] == u+1
	// marks u→w as taken.
	predAt, seen := make([]int, n+1), make([]int32, n)
	for u, e := 0, 0; u < n; u++ {
		for end := e + int(c.OutDeg[u]); e < end; e++ {
			w := int64(u) + c.Edges[e]>>1
			switch {
			case !alive(w):
				return nil, fmt.Errorf("graph: edge %d->%d: invalid or deleted node", u, w)
			case w == int64(u) && !c.AllowLoops:
				return nil, fmt.Errorf("graph: edge %d->%d: %w", u, w, ErrSelfLoop)
			case seen[w] == int32(u+1):
				return nil, fmt.Errorf("graph: edge %d->%d: %w", u, w, ErrEdgeExists)
			}
			seen[w] = int32(u + 1)
			predAt[w+1]++
		}
	}
	for v := 0; v < n; v++ {
		predAt[v+1] += predAt[v]
	}
	in, ids := NewInterner(), make([]LabelID, len(c.Labels))
	for i, name := range c.Labels {
		ids[i] = in.Intern(name)
	}
	g := NewShared(in)
	g.allowLoops, g.root, g.numEdges = c.AllowLoops, NodeID(c.Root), m
	var empty cow.Array[*node]
	g.nodes = empty.Edit(n)
	recs, succ, pred := make([]node, n), make([]Edge, m), make([]Edge, m)
	for u, e := 0, 0; u < n; u++ {
		r, end := &recs[u], e+int(c.OutDeg[u])
		*g.nodes.Slot(u) = r
		if c.Label[u] != 0 {
			r.label, r.alive, r.value, r.succ = ids[c.Label[u]-1], true, c.Value[u], succ[e:end:end]
			g.numAlive++
		}
		for ; e < end; e++ {
			w, kind := NodeID(int64(u)+c.Edges[e]>>1), EdgeKind(c.Edges[e]&1)
			succ[e], pred[predAt[w]] = Edge{To: w, Kind: kind}, Edge{To: NodeID(u), Kind: kind}
			predAt[w]++
			if kind == IDRef {
				g.numIDRef++
			}
		}
	}
	// predAt[v] now ends v's run of pred, which begins where v-1's ends.
	for v, a := 0, 0; v < n; v++ {
		b := predAt[v]
		recs[v].pred = pred[a:b:b]
		a = b
	}
	return g, nil
}
