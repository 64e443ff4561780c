package graph

import (
	"fmt"
	"io"
)

// Validate checks the graph's internal invariants: successor/predecessor
// lists mirror each other, edge kinds agree on both endpoints, counters
// match, no parallel edges or self-loops exist, the root (if set) is alive,
// and no edge touches a deleted node. An edge into the root is legal: every
// write path accepts one, and both index families maintain it. It returns
// the first violation found.
func (g *Graph) Validate() error {
	nEdges, nIDRef := 0, 0
	for i := 0; i < g.nodes.Len(); i++ {
		n := g.rec(NodeID(i))
		if !n.alive {
			if len(n.succ) != 0 || len(n.pred) != 0 {
				return fmt.Errorf("deleted node %d still has incident edges", i)
			}
			continue
		}
		seen := make(map[NodeID]bool, len(n.succ))
		for _, e := range n.succ {
			if e.To == NodeID(i) && !g.allowLoops {
				return fmt.Errorf("self-loop at node %d", i)
			}
			if seen[e.To] {
				return fmt.Errorf("parallel edge %d->%d", i, e.To)
			}
			seen[e.To] = true
			if !g.Alive(e.To) {
				return fmt.Errorf("edge %d->%d targets deleted node", i, e.To)
			}
			if !hasMirror(g.rec(e.To).pred, NodeID(i), e.Kind) {
				return fmt.Errorf("edge %d->%d missing from pred list of %d", i, e.To, e.To)
			}
			nEdges++
			if e.Kind == IDRef {
				nIDRef++
			}
		}
		for _, e := range n.pred {
			if !g.Alive(e.To) {
				return fmt.Errorf("pred edge %d<-%d from deleted node", i, e.To)
			}
			if !hasMirror(g.rec(e.To).succ, NodeID(i), e.Kind) {
				return fmt.Errorf("pred edge %d<-%d missing from succ list of %d", i, e.To, e.To)
			}
		}
	}
	if nEdges != g.numEdges {
		return fmt.Errorf("edge counter %d != actual %d", g.numEdges, nEdges)
	}
	if nIDRef != g.numIDRef {
		return fmt.Errorf("idref counter %d != actual %d", g.numIDRef, nIDRef)
	}
	if g.root != InvalidNode {
		if !g.Alive(g.root) {
			return fmt.Errorf("root %d is deleted", g.root)
		}
	}
	return nil
}

func hasMirror(list []Edge, to NodeID, kind EdgeKind) bool {
	for _, e := range list {
		if e.To == to && e.Kind == kind {
			return true
		}
	}
	return false
}

// WriteDOT emits the graph in Graphviz DOT format, labeling nodes as
// "label#id" and drawing IDREF edges dashed (matching the paper's Figure 1
// convention of dashed IDREF edges).
func (g *Graph) WriteDOT(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "digraph G {"); err != nil {
		return err
	}
	nodes := g.Nodes()
	for _, i := range nodes {
		if _, err := fmt.Fprintf(w, "  n%d [label=%q];\n", i, fmt.Sprintf("%s#%d", g.LabelName(i), i)); err != nil {
			return err
		}
	}
	for _, i := range nodes {
		for _, e := range g.rec(i).succ {
			style := ""
			if e.Kind == IDRef {
				style = " [style=dashed]"
			}
			if _, err := fmt.Fprintf(w, "  n%d -> n%d%s;\n", i, e.To, style); err != nil {
				return err
			}
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}
