package graph

// TopoOrder returns the live nodes in a topological order (every edge goes
// from an earlier to a later position) and true, or nil and false if the
// graph contains a cycle.
//
// Acyclicity matters for the 1-index maintenance guarantees: on acyclic data
// graphs the minimal 1-index is unique and minimum (Lemma 4), so the
// split/merge algorithm maintains the minimum index exactly (Theorem 1).
func (g *Graph) TopoOrder() ([]NodeID, bool) {
	indeg := make([]int, g.nodes.Len())
	queue := make([]NodeID, 0, g.numAlive)
	for i := range indeg {
		n := g.rec(NodeID(i))
		if !n.alive {
			continue
		}
		indeg[i] = len(n.pred)
		if indeg[i] == 0 {
			queue = append(queue, NodeID(i))
		}
	}
	order := make([]NodeID, 0, g.numAlive)
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		order = append(order, v)
		for _, e := range g.rec(v).succ {
			indeg[e.To]--
			if indeg[e.To] == 0 {
				queue = append(queue, e.To)
			}
		}
	}
	if len(order) != g.numAlive {
		return nil, false
	}
	return order, true
}

// IsAcyclic reports whether the graph has no directed cycles.
func (g *Graph) IsAcyclic() bool {
	_, ok := g.TopoOrder()
	return ok
}

// Reachable returns the set of nodes reachable from v (including v itself),
// optionally restricted to tree edges only (skipIDRef). This is the
// traversal used to extract subtrees for the subgraph-addition workload,
// which deliberately does not follow IDREF edges (§7.1).
func (g *Graph) Reachable(v NodeID, skipIDRef bool) []NodeID {
	g.live(v)
	seen := map[NodeID]bool{v: true}
	stack := []NodeID{v}
	out := []NodeID{v}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.rec(u).succ {
			if skipIDRef && e.Kind == IDRef {
				continue
			}
			if !seen[e.To] {
				seen[e.To] = true
				stack = append(stack, e.To)
				out = append(out, e.To)
			}
		}
	}
	return out
}

// DescendantsWithin returns all nodes reachable from v by paths of length at
// most depth (v itself is distance 0 and included). This is the BFS the
// simple A(k) baseline of [17] uses to find potentially affected dnodes.
func (g *Graph) DescendantsWithin(v NodeID, depth int) []NodeID {
	g.live(v)
	if depth < 0 {
		return nil
	}
	seen := map[NodeID]bool{v: true}
	frontier := []NodeID{v}
	out := []NodeID{v}
	for d := 0; d < depth && len(frontier) > 0; d++ {
		var next []NodeID
		for _, u := range frontier {
			for _, e := range g.rec(u).succ {
				if !seen[e.To] {
					seen[e.To] = true
					next = append(next, e.To)
					out = append(out, e.To)
				}
			}
		}
		frontier = next
	}
	return out
}
