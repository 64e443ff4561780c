package graph

import (
	"errors"
	"fmt"
)

// Subgraph is a detached rooted subgraph, used by the subgraph
// addition/deletion operations of §5.2 and by the update workloads: a
// subtree is extracted from a data graph (recording the edges that crossed
// its boundary), deleted, and later re-inserted.
//
// Local node 0 is the subgraph root. Cross edges reference local nodes by
// index and outside nodes by their NodeID in the host graph.
type Subgraph struct {
	Labels    []LabelID   // label per local node; node 0 is the root
	Values    []string    // value per local node ("" if none)
	Edges     [][2]int32  // internal edges as (from, to) local indices
	EdgeKinds []EdgeKind  // kind per internal edge
	CrossIn   []CrossEdge // edges from an outside node to a local node
	CrossOut  []CrossEdge // edges from a local node to an outside node

	// Members records, for a Subgraph produced by Extract, the host-graph
	// NodeID each local node had at extraction time (Members[i] corresponds
	// to local node i). It is informational: deletion helpers use it to know
	// which host nodes to remove; InsertNodes assigns fresh ids.
	Members []NodeID
}

// CrossEdge is an edge crossing a subgraph boundary.
type CrossEdge struct {
	Outside NodeID // host-graph endpoint
	Local   int32  // subgraph-local endpoint
	Kind    EdgeKind
}

// NumNodes returns the number of local nodes.
func (s *Subgraph) NumNodes() int { return len(s.Labels) }

// Extract captures the subtree of g rooted at root as a Subgraph. The node
// set is everything reachable from root; when skipIDRef is set the
// traversal follows only tree edges (the workload convention of §7.1: IDREF
// edges represent inter-object relationships that are not integral parts of
// the entity). All edges between the captured set and the rest of the graph
// — in either direction, of either kind, including the edge from root's own
// parent — are recorded as cross edges. The graph is not modified.
func Extract(g *Graph, root NodeID, skipIDRef bool) *Subgraph {
	members := g.Reachable(root, skipIDRef)
	local := make(map[NodeID]int32, len(members))
	for i, v := range members {
		local[v] = int32(i)
	}
	s := &Subgraph{
		Labels:  make([]LabelID, len(members)),
		Values:  make([]string, len(members)),
		Members: append([]NodeID(nil), members...),
	}
	for i, v := range members {
		s.Labels[i] = g.Label(v)
		s.Values[i] = g.Value(v)
	}
	for _, v := range members {
		lv := local[v]
		g.EachSucc(v, func(w NodeID, kind EdgeKind) {
			if lw, ok := local[w]; ok {
				s.Edges = append(s.Edges, [2]int32{lv, lw})
				s.EdgeKinds = append(s.EdgeKinds, kind)
			} else {
				s.CrossOut = append(s.CrossOut, CrossEdge{Outside: w, Local: lv, Kind: kind})
			}
		})
		g.EachPred(v, func(u NodeID, kind EdgeKind) {
			if _, ok := local[u]; !ok {
				s.CrossIn = append(s.CrossIn, CrossEdge{Outside: u, Local: lv, Kind: kind})
			}
		})
	}
	return s
}

// ErrBadSubgraph is wrapped by the error of a Subgraph whose parts
// disagree: fewer values than labels, fewer edge kinds than edges, or an
// internal or cross edge naming a local node the subgraph does not have.
var ErrBadSubgraph = errors.New("graph: malformed subgraph")

// Check reports the first disagreement among s's parts (see
// ErrBadSubgraph). InsertNodes, and so BuildGraph, runs it before adding
// any node.
func (s *Subgraph) Check() error {
	n := int32(len(s.Labels))
	local := func(i int32) bool { return 0 <= i && i < n }
	if len(s.Values) < len(s.Labels) {
		return fmt.Errorf("%w: %d values for %d nodes", ErrBadSubgraph, len(s.Values), n)
	}
	if len(s.EdgeKinds) < len(s.Edges) {
		return fmt.Errorf("%w: %d edge kinds for %d edges", ErrBadSubgraph, len(s.EdgeKinds), len(s.Edges))
	}
	for i, e := range s.Edges {
		if !local(e[0]) || !local(e[1]) {
			return fmt.Errorf("%w: internal edge %d is %d->%d over %d nodes", ErrBadSubgraph, i, e[0], e[1], n)
		}
	}
	for _, cross := range [][]CrossEdge{s.CrossIn, s.CrossOut} {
		for _, ce := range cross {
			if !local(ce.Local) {
				return fmt.Errorf("%w: cross edge at local node %d over %d nodes", ErrBadSubgraph, ce.Local, n)
			}
		}
	}
	return nil
}

// InsertNodes materializes the subgraph's local nodes and internal edges in
// g and returns the mapping from local index to new NodeID. Cross edges are
// not added; index-maintaining callers add them one by one (or in the
// batched root-first order of Figure 6). A malformed subgraph (Check) adds
// nothing.
func (s *Subgraph) InsertNodes(g *Graph) ([]NodeID, error) {
	if err := s.Check(); err != nil {
		return nil, err
	}
	ids := make([]NodeID, len(s.Labels))
	for i, l := range s.Labels {
		ids[i] = g.AddNodeL(l)
		if s.Values[i] != "" {
			g.SetValue(ids[i], s.Values[i])
		}
	}
	for i, e := range s.Edges {
		if err := g.AddEdge(ids[e[0]], ids[e[1]], s.EdgeKinds[i]); err != nil {
			return nil, fmt.Errorf("subgraph internal edge %d: %w", i, err)
		}
	}
	return ids, nil
}

// BuildGraph materializes the subgraph alone as a standalone Graph sharing
// g's label interner (cross edges ignored), with local node 0 as root.
// Used to construct the subgraph's own 1-index before grafting (Figure 6).
func (s *Subgraph) BuildGraph(in *Interner) (*Graph, []NodeID, error) {
	g := NewShared(in)
	ids, err := s.InsertNodes(g)
	if err != nil {
		return nil, nil, err
	}
	if len(ids) > 0 {
		g.SetRoot(ids[0])
	}
	return g, ids, nil
}
