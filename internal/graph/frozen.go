package graph

import "structix/internal/cow"

// Frozen is an immutable point-in-time copy of a Graph, built for
// snapshot-isolated readers: once published, nothing about it ever
// changes, so any number of goroutines may traverse it while the live
// graph keeps mutating under its writers. Query evaluation needs label
// names, values, the root and both adjacency directions (predicates walk
// successors, A(k) validation walks predecessors), and that is exactly
// what a Frozen holds.
//
// The per-node records sit in a paged copy-on-write array (internal/cow):
// Rebuild shares every page of the previous Frozen that holds no changed
// node, so publishing a new view costs one spine copy (8 bytes per 64
// slots) plus a 64-pointer page and the adjacency of each node the writers
// touched — whatever the write was (edge batch, node script, subtree
// delete or graft) and however large the graph is.
//
// The graph itself keeps the list of changed nodes: Freeze turns the
// record on, every mutator (AddNodeL, AddEdge, DeleteEdge, RemoveNode,
// SetValue) adds to it, and Rebuild consumes it. A chain of views must
// therefore be derived in order — each Rebuild from the view the previous
// Freeze or Rebuild of the same graph returned.
type Frozen struct {
	root       NodeID
	numAlive   int
	numEdges   int
	allowLoops bool
	nodes      cow.Array[*frozenNode] // by NodeID; nil for dead slots
}

// frozenNode is one immutable node record. The succ/pred slices are owned
// by the record and never mutated after construction.
type frozenNode struct {
	name  string
	value string
	succ  []Edge
	pred  []Edge
}

// Freeze builds a complete immutable copy of the graph's current state
// and starts (or restarts) the change record later Rebuilds consume.
func (g *Graph) Freeze() *Frozen {
	for _, v := range g.stale {
		g.nodes[v].stale = false
	}
	g.stale = g.stale[:0]
	g.track = true
	var empty cow.Array[*frozenNode]
	e := empty.Edit(len(g.nodes))
	for i := range g.nodes {
		if g.nodes[i].alive {
			*e.Slot(i) = g.freezeNode(NodeID(i))
		}
	}
	return g.frozen(e.Array())
}

func (g *Graph) frozen(nodes cow.Array[*frozenNode]) *Frozen {
	return &Frozen{
		root:       g.root,
		numAlive:   g.numAlive,
		numEdges:   g.numEdges,
		allowLoops: g.allowLoops,
		nodes:      nodes,
	}
}

func (g *Graph) freezeNode(v NodeID) *frozenNode {
	n := &g.nodes[v]
	return &frozenNode{
		name:  g.labels.Name(n.label),
		value: n.value,
		succ:  append([]Edge(nil), n.succ...),
		pred:  append([]Edge(nil), n.pred...),
	}
}

// Rebuild derives the next Frozen from this one by re-copying from the
// live graph the nodes its change record lists plus those in touched;
// every page without such a node is shared with the receiver. touched is
// for callers that changed the graph behind a view the record does not
// cover; ids outside the graph's id space and duplicates are ignored.
func (f *Frozen) Rebuild(g *Graph, touched []NodeID) *Frozen {
	g.track = true
	for _, v := range touched {
		if v >= 0 && int(v) < len(g.nodes) {
			g.touch(v)
		}
	}
	e := f.nodes.Edit(len(g.nodes))
	for _, v := range g.stale {
		g.nodes[v].stale = false
		var n *frozenNode
		if g.nodes[v].alive {
			n = g.freezeNode(v)
		}
		*e.Slot(int(v)) = n
	}
	g.stale = g.stale[:0]
	return g.frozen(e.Array())
}

// Root returns the root node at freeze time (InvalidNode if none).
func (f *Frozen) Root() NodeID { return f.root }

// AllowSelfLoops reports the graph's self-loop policy at freeze time —
// persistence must carry it so a reloaded graph accepts the same edges.
func (f *Frozen) AllowSelfLoops() bool { return f.allowLoops }

// Alive reports whether v was live at freeze time.
func (f *Frozen) Alive(v NodeID) bool { return f.node(v) != nil }

// node returns v's record, nil for a dead or unknown node.
func (f *Frozen) node(v NodeID) *frozenNode {
	if uint(v) >= uint(f.nodes.Len()) {
		return nil
	}
	return *f.nodes.At(int(v))
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
		return n.name
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
