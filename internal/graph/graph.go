// Package graph implements the graph-structured data model for XML and
// other semistructured data used throughout structix.
//
// Following the model of Yi et al. (SIGMOD 2004, §3), a database is a
// directed, labeled graph G = (V, E, root, Σ, label, oid, value). Each edge
// indicates an object-subobject relationship (a "tree" edge) or an IDREF
// relationship. Each node carries a label drawn from an interned alphabet Σ
// and, optionally, a string value. There is a single root node with the
// distinguished label ROOT and no incoming edges. A database with multiple
// XML documents is modeled as a single graph whose artificial root connects
// the individual document roots.
//
// The package maintains both successor and predecessor adjacency, which the
// index maintenance algorithms need: splits scan Succ sets, and index-edge
// counts are updated by scanning the incident edges of moved nodes.
package graph

import (
	"errors"
	"fmt"
	"sort"
)

// NodeID identifies a node (a "dnode" in the paper's terminology) within a
// Graph. NodeIDs are dense, stable, and never reused after deletion.
type NodeID int32

// InvalidNode is the zero-like sentinel returned when no node applies.
const InvalidNode NodeID = -1

// LabelID identifies an interned label string.
type LabelID int32

// RootLabel is the distinguished label of the root node.
const RootLabel = "ROOT"

// DeleteLabel is the distinguished label used by the subgraph-deletion trick
// of §5.2: adding an edge from a DELETE-labeled node to the root of a
// subgraph singles the subgraph out of the index so it can be removed.
const DeleteLabel = "DELETE"

// EdgeKind distinguishes object-subobject edges from IDREF edges.
type EdgeKind uint8

const (
	// Tree marks an object-subobject (containment) edge.
	Tree EdgeKind = iota
	// IDRef marks a reference edge created from an ID/IDREF attribute pair.
	IDRef
)

func (k EdgeKind) String() string {
	switch k {
	case Tree:
		return "tree"
	case IDRef:
		return "idref"
	default:
		return fmt.Sprintf("EdgeKind(%d)", uint8(k))
	}
}

// Interner maps label strings to dense LabelIDs and back. A single Interner
// may be shared by several graphs (e.g. a data graph and a subgraph about to
// be added to it) so that their LabelIDs are directly comparable.
type Interner struct {
	byName map[string]LabelID
	names  []string
}

// NewInterner returns an empty label interner.
func NewInterner() *Interner {
	return &Interner{byName: make(map[string]LabelID)}
}

// Intern returns the LabelID for name, assigning a fresh one if needed.
func (in *Interner) Intern(name string) LabelID {
	if id, ok := in.byName[name]; ok {
		return id
	}
	id := LabelID(len(in.names))
	in.names = append(in.names, name)
	in.byName[name] = id
	return id
}

// Lookup returns the LabelID for name and whether it has been interned.
func (in *Interner) Lookup(name string) (LabelID, bool) {
	id, ok := in.byName[name]
	return id, ok
}

// Name returns the string for an interned LabelID.
func (in *Interner) Name(id LabelID) string {
	if id < 0 || int(id) >= len(in.names) {
		return fmt.Sprintf("label#%d", id)
	}
	return in.names[id]
}

// Len reports the number of distinct interned labels.
func (in *Interner) Len() int { return len(in.names) }

// Edge is one directed edge endpoint record; node adjacency lists store the
// opposite endpoint and the edge kind.
type Edge struct {
	To   NodeID
	Kind EdgeKind
}

type node struct {
	label LabelID
	value string
	succ  []Edge // outgoing edges; Edge.To is the sink
	pred  []Edge // incoming edges; Edge.To is the source
	alive bool
	stale bool // listed in Graph.stale (see touch)
}

// Graph is a mutable directed labeled graph. It is not safe for concurrent
// mutation; concurrent readers are safe in the absence of writers.
type Graph struct {
	labels     *Interner
	nodes      []node
	root       NodeID
	numAlive   int
	numEdges   int
	numIDRef   int
	rootLabel  LabelID
	allowLoops bool

	// Frozen-view change record (see frozen.go): once Freeze has been
	// called, every node whose adjacency, value or liveness a mutator
	// changes is listed here, once, so Frozen.Rebuild re-copies only those.
	track bool
	stale []NodeID
}

// New creates an empty graph with a fresh label interner and no root.
func New() *Graph { return NewShared(NewInterner()) }

// NewShared creates an empty graph using a caller-provided interner, so the
// graph's LabelIDs are comparable with other graphs sharing the interner.
func NewShared(in *Interner) *Graph {
	return &Graph{
		labels:    in,
		root:      InvalidNode,
		rootLabel: in.Intern(RootLabel),
	}
}

// Labels returns the graph's label interner.
func (g *Graph) Labels() *Interner { return g.labels }

// AddNode creates a node with the given label string and empty value.
func (g *Graph) AddNode(label string) NodeID {
	return g.AddNodeL(g.labels.Intern(label))
}

// AddNodeL creates a node with an already-interned label.
func (g *Graph) AddNodeL(label LabelID) NodeID {
	id := NodeID(len(g.nodes))
	g.nodes = append(g.nodes, node{label: label, alive: true})
	g.numAlive++
	g.touch(id)
	return id
}

// AddRoot creates the distinguished ROOT node and records it as the graph's
// root. It panics if a root already exists.
func (g *Graph) AddRoot() NodeID {
	if g.root != InvalidNode {
		panic("graph: AddRoot called twice")
	}
	g.root = g.AddNodeL(g.rootLabel)
	return g.root
}

// SetRoot marks an existing node as the root.
func (g *Graph) SetRoot(v NodeID) {
	g.mustAlive(v)
	g.root = v
}

// Root returns the root node, or InvalidNode if none has been set.
func (g *Graph) Root() NodeID { return g.root }

// SetValue attaches a string value to a node.
func (g *Graph) SetValue(v NodeID, value string) {
	g.mustAlive(v)
	g.nodes[v].value = value
	g.touch(v)
}

// Value returns the node's value (empty if none was set).
func (g *Graph) Value(v NodeID) string {
	g.mustAlive(v)
	return g.nodes[v].value
}

// Label returns the node's interned label.
func (g *Graph) Label(v NodeID) LabelID {
	g.mustAlive(v)
	return g.nodes[v].label
}

// LabelName returns the node's label as a string.
func (g *Graph) LabelName(v NodeID) string {
	return g.labels.Name(g.Label(v))
}

// Alive reports whether v identifies a live (non-deleted) node.
func (g *Graph) Alive(v NodeID) bool {
	return v >= 0 && int(v) < len(g.nodes) && g.nodes[v].alive
}

// NumNodes returns the number of live nodes.
func (g *Graph) NumNodes() int { return g.numAlive }

// NumEdges returns the number of edges (tree + IDREF).
func (g *Graph) NumEdges() int { return g.numEdges }

// NumIDRefEdges returns the number of IDREF edges.
func (g *Graph) NumIDRefEdges() int { return g.numIDRef }

// MaxNodeID returns the exclusive upper bound of NodeIDs ever assigned;
// useful for sizing NodeID-indexed side arrays.
func (g *Graph) MaxNodeID() NodeID { return NodeID(len(g.nodes)) }

// ErrEdgeExists is returned by AddEdge when the edge is already present;
// the paper's model treats E as a set, so parallel edges are rejected.
var ErrEdgeExists = errors.New("graph: edge already exists")

// ErrSelfLoop is returned by AddEdge for u == v. XML object graphs have no
// self-loops, and the maintenance algorithms assume index self-cycles away
// (§5.1); rejecting data self-loops keeps that assumption checkable.
// Index graphs — where an inode can legitimately point to itself — opt out
// via SetAllowSelfLoops.
var ErrSelfLoop = errors.New("graph: self-loop rejected")

// SetAllowSelfLoops enables self-loop edges. Intended for graphs that model
// *index* graphs (e.g. during reconstruction), not XML data graphs.
func (g *Graph) SetAllowSelfLoops(allow bool) { g.allowLoops = allow }

// AllowSelfLoops reports whether self-loop edges are accepted.
func (g *Graph) AllowSelfLoops() bool { return g.allowLoops }

// ErrNoEdge is returned by DeleteEdge when the edge is absent.
var ErrNoEdge = errors.New("graph: no such edge")

// AddEdge inserts a directed edge u→v of the given kind.
func (g *Graph) AddEdge(u, v NodeID, kind EdgeKind) error {
	g.mustAlive(u)
	g.mustAlive(v)
	if u == v && !g.allowLoops {
		return ErrSelfLoop
	}
	if g.HasEdge(u, v) {
		return ErrEdgeExists
	}
	g.nodes[u].succ = append(g.nodes[u].succ, Edge{To: v, Kind: kind})
	g.nodes[v].pred = append(g.nodes[v].pred, Edge{To: u, Kind: kind})
	g.numEdges++
	if kind == IDRef {
		g.numIDRef++
	}
	g.touch(u)
	g.touch(v)
	return nil
}

// DeleteEdge removes the directed edge u→v.
func (g *Graph) DeleteEdge(u, v NodeID) error {
	g.mustAlive(u)
	g.mustAlive(v)
	kind, ok := removeEdge(&g.nodes[u].succ, v)
	if !ok {
		return ErrNoEdge
	}
	if _, ok := removeEdge(&g.nodes[v].pred, u); !ok {
		panic("graph: adjacency lists out of sync")
	}
	g.numEdges--
	if kind == IDRef {
		g.numIDRef--
	}
	g.touch(u)
	g.touch(v)
	return nil
}

func removeEdge(list *[]Edge, to NodeID) (EdgeKind, bool) {
	s := *list
	for i := range s {
		if s[i].To == to {
			kind := s[i].Kind
			s[i] = s[len(s)-1]
			*list = s[:len(s)-1]
			return kind, true
		}
	}
	return 0, false
}

// HasEdge reports whether the edge u→v exists.
func (g *Graph) HasEdge(u, v NodeID) bool {
	g.mustAlive(u)
	g.mustAlive(v)
	su, sv := g.nodes[u].succ, g.nodes[v].pred
	// Scan the shorter adjacency list.
	if len(su) <= len(sv) {
		for _, e := range su {
			if e.To == v {
				return true
			}
		}
		return false
	}
	for _, e := range sv {
		if e.To == u {
			return true
		}
	}
	return false
}

// EdgeKindOf returns the kind of edge u→v, if present.
func (g *Graph) EdgeKindOf(u, v NodeID) (EdgeKind, bool) {
	g.mustAlive(u)
	for _, e := range g.nodes[u].succ {
		if e.To == v {
			return e.Kind, true
		}
	}
	return 0, false
}

// RemoveNode deletes a node together with all of its incident edges.
// The NodeID is never reused.
func (g *Graph) RemoveNode(v NodeID) {
	g.mustAlive(v)
	// Copy slices since DeleteEdge mutates them.
	for _, e := range append([]Edge(nil), g.nodes[v].succ...) {
		if err := g.DeleteEdge(v, e.To); err != nil {
			panic("graph: RemoveNode: " + err.Error())
		}
	}
	for _, e := range append([]Edge(nil), g.nodes[v].pred...) {
		if e.To == v {
			continue // self-loop already removed via the succ pass
		}
		if err := g.DeleteEdge(e.To, v); err != nil {
			panic("graph: RemoveNode: " + err.Error())
		}
	}
	g.nodes[v].alive = false
	g.nodes[v].value = ""
	g.numAlive--
	g.touch(v)
	if g.root == v {
		g.root = InvalidNode
	}
}

// OutDegree returns the number of outgoing edges of v.
func (g *Graph) OutDegree(v NodeID) int {
	g.mustAlive(v)
	return len(g.nodes[v].succ)
}

// InDegree returns the number of incoming edges of v.
func (g *Graph) InDegree(v NodeID) int {
	g.mustAlive(v)
	return len(g.nodes[v].pred)
}

// EachSucc calls fn for every successor of v. The iteration order is
// unspecified. fn must not mutate the graph.
func (g *Graph) EachSucc(v NodeID, fn func(w NodeID, kind EdgeKind)) {
	g.mustAlive(v)
	for _, e := range g.nodes[v].succ {
		fn(e.To, e.Kind)
	}
}

// EachPred calls fn for every predecessor of v. fn must not mutate the graph.
func (g *Graph) EachPred(v NodeID, fn func(u NodeID, kind EdgeKind)) {
	g.mustAlive(v)
	for _, e := range g.nodes[v].pred {
		fn(e.To, e.Kind)
	}
}

// Succ returns a fresh slice of v's successors.
func (g *Graph) Succ(v NodeID) []NodeID {
	g.mustAlive(v)
	out := make([]NodeID, 0, len(g.nodes[v].succ))
	for _, e := range g.nodes[v].succ {
		out = append(out, e.To)
	}
	return out
}

// Pred returns a fresh slice of v's predecessors.
func (g *Graph) Pred(v NodeID) []NodeID {
	g.mustAlive(v)
	out := make([]NodeID, 0, len(g.nodes[v].pred))
	for _, e := range g.nodes[v].pred {
		out = append(out, e.To)
	}
	return out
}

// EachNode calls fn for every live node in increasing NodeID order.
func (g *Graph) EachNode(fn func(v NodeID)) {
	for i := range g.nodes {
		if g.nodes[i].alive {
			fn(NodeID(i))
		}
	}
}

// Nodes returns a fresh slice of all live NodeIDs in increasing order.
func (g *Graph) Nodes() []NodeID {
	out := make([]NodeID, 0, g.numAlive)
	g.EachNode(func(v NodeID) { out = append(out, v) })
	return out
}

// EachEdge calls fn for every edge (u, v, kind), grouped by source node.
func (g *Graph) EachEdge(fn func(u, v NodeID, kind EdgeKind)) {
	for i := range g.nodes {
		if !g.nodes[i].alive {
			continue
		}
		for _, e := range g.nodes[i].succ {
			fn(NodeID(i), e.To, e.Kind)
		}
	}
}

// EdgeList returns all edges of a given kind, sorted by (source, sink).
// Pass kind < 0 semantics via EdgeListAll for every kind.
func (g *Graph) EdgeList(kind EdgeKind) [][2]NodeID {
	var out [][2]NodeID
	g.EachEdge(func(u, v NodeID, k EdgeKind) {
		if k == kind {
			out = append(out, [2]NodeID{u, v})
		}
	})
	sortEdgePairs(out)
	return out
}

// EdgeListAll returns every edge, sorted by (source, sink).
func (g *Graph) EdgeListAll() [][2]NodeID {
	out := make([][2]NodeID, 0, g.numEdges)
	g.EachEdge(func(u, v NodeID, _ EdgeKind) {
		out = append(out, [2]NodeID{u, v})
	})
	sortEdgePairs(out)
	return out
}

func sortEdgePairs(s [][2]NodeID) {
	sort.Slice(s, func(i, j int) bool {
		if s[i][0] != s[j][0] {
			return s[i][0] < s[j][0]
		}
		return s[i][1] < s[j][1]
	})
}

// Clone returns a deep copy of the graph sharing the label interner.
func (g *Graph) Clone() *Graph {
	cp := &Graph{
		labels:     g.labels,
		nodes:      make([]node, len(g.nodes)),
		root:       g.root,
		numAlive:   g.numAlive,
		numEdges:   g.numEdges,
		numIDRef:   g.numIDRef,
		rootLabel:  g.rootLabel,
		allowLoops: g.allowLoops,
	}
	for i, n := range g.nodes {
		cp.nodes[i] = node{
			label: n.label,
			value: n.value,
			succ:  append([]Edge(nil), n.succ...),
			pred:  append([]Edge(nil), n.pred...),
			alive: n.alive,
		}
	}
	return cp
}

// Compact rebuilds the graph with a dense NodeID space, reclaiming the
// slots left behind by deletions (NodeIDs are never reused in place, so a
// long churn of subtree deletions and node removals grows MaxNodeID and
// every NodeID-indexed side array with it). It returns the new graph and
// the old→new id mapping (InvalidNode for dead slots).
//
// Indexes hold NodeIDs and must be rebuilt (or re-derived from a persisted
// partition remapped with the returned table) against the compacted graph.
func (g *Graph) Compact() (*Graph, []NodeID) {
	remap := make([]NodeID, len(g.nodes))
	for i := range remap {
		remap[i] = InvalidNode
	}
	ng := NewShared(g.labels)
	ng.allowLoops = g.allowLoops
	g.EachNode(func(v NodeID) {
		nv := ng.AddNodeL(g.nodes[v].label)
		if val := g.nodes[v].value; val != "" {
			ng.SetValue(nv, val)
		}
		remap[v] = nv
	})
	g.EachEdge(func(u, v NodeID, kind EdgeKind) {
		if err := ng.AddEdge(remap[u], remap[v], kind); err != nil {
			panic("graph: Compact: " + err.Error())
		}
	})
	if g.root != InvalidNode {
		ng.SetRoot(remap[g.root])
	}
	return ng, remap
}

// touch records that v's frozen record is out of date. Every mutator
// calls it; it does nothing until the first Freeze.
func (g *Graph) touch(v NodeID) {
	if g.track && !g.nodes[v].stale {
		g.nodes[v].stale = true
		g.stale = append(g.stale, v)
	}
}

func (g *Graph) mustAlive(v NodeID) {
	if !g.Alive(v) {
		panic(fmt.Sprintf("graph: invalid or deleted node %d", v))
	}
}
