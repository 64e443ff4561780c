package graph

import "structix/internal/cow"

// Frozen is an immutable point-in-time view of a Graph, built for
// snapshot-isolated readers: once published, nothing about it ever
// changes, so any number of goroutines may traverse it while the live
// graph keeps mutating under its writers. Query evaluation needs label
// names, values, the root and both adjacency directions (predicates walk
// successors, A(k) validation walks predecessors), and that is exactly
// what a Frozen holds.
//
// A Frozen is not a copy: it holds the live graph's own copy-on-write
// pages of record pointers as they stood at Freeze, and the label names
// interned by then. The writer copies a page, and a record with its
// adjacency, before its first write after a Freeze, so publishing a view
// costs one spine copy (8 bytes per 64 slots) and each later write pays
// for the page and record it touches — whatever the write was (edge
// batch, node script, subtree delete or graft) and however large the
// graph is. Views may be taken in any order and any number of times; each
// is exactly the graph at its Freeze.
type Frozen struct {
	root       NodeID
	numAlive   int
	numEdges   int
	allowLoops bool
	names      []string         // the interner's names at freeze time
	nodes      cow.Array[*node] // by NodeID; the pages the graph published
}

// Freeze ends the graph's current epoch and returns the immutable view of
// it, in O(spine): the view shares every page, and mut copies a page
// before the next write into it.
func (g *Graph) Freeze() *Frozen {
	a := g.nodes.Array()
	g.nodes = a.Edit(a.Len())
	g.epoch++
	return &Frozen{
		root:       g.root,
		numAlive:   g.numAlive,
		numEdges:   g.numEdges,
		allowLoops: g.allowLoops,
		names:      g.labels.names,
		nodes:      a,
	}
}

// Rebuild returns g.Freeze(), which already shares every unchanged page
// with f; touched is ignored. It remains only because the repo benchmark's
// layer ladder (bench/ladder.go), which changes only with the benchmark
// itself, calls it; ROADMAP item 1 retires it.
func (f *Frozen) Rebuild(g *Graph, touched []NodeID) *Frozen { return g.Freeze() }

// Root returns the root node at freeze time (InvalidNode if none).
func (f *Frozen) Root() NodeID { return f.root }

// AllowSelfLoops reports the graph's self-loop policy at freeze time —
// persistence must carry it so a reloaded graph accepts the same edges.
func (f *Frozen) AllowSelfLoops() bool { return f.allowLoops }

// Alive reports whether v was live at freeze time.
func (f *Frozen) Alive(v NodeID) bool { return f.node(v) != nil }

// node returns v's record, nil for a dead or unknown node.
func (f *Frozen) node(v NodeID) *node {
	if uint(v) >= uint(f.nodes.Len()) {
		return nil
	}
	if n := *f.nodes.At(int(v)); n.alive {
		return n
	}
	return nil
}

// NumNodes returns the live-node count at freeze time.
func (f *Frozen) NumNodes() int { return f.numAlive }

// NumEdges returns the edge count (tree + IDREF) at freeze time.
func (f *Frozen) NumEdges() int { return f.numEdges }

// MaxNodeID returns the exclusive NodeID bound at freeze time.
func (f *Frozen) MaxNodeID() NodeID { return NodeID(f.nodes.Len()) }

// LabelName returns v's label string ("" for a dead or unknown node).
func (f *Frozen) LabelName(v NodeID) string {
	if n := f.node(v); n != nil {
		return labelName(f.names, n.label)
	}
	return ""
}

// Value returns v's value ("" for a dead or unknown node).
func (f *Frozen) Value(v NodeID) string {
	if n := f.node(v); n != nil {
		return n.value
	}
	return ""
}

// EachSucc calls fn for every successor edge of v at freeze time.
func (f *Frozen) EachSucc(v NodeID, fn func(w NodeID, kind EdgeKind)) {
	if n := f.node(v); n != nil {
		for _, e := range n.succ {
			fn(e.To, e.Kind)
		}
	}
}

// EachPred calls fn for every predecessor edge of v at freeze time.
func (f *Frozen) EachPred(v NodeID, fn func(u NodeID, kind EdgeKind)) {
	if n := f.node(v); n != nil {
		for _, e := range n.pred {
			fn(e.To, e.Kind)
		}
	}
}
