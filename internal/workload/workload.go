// Package workload generates the update workloads of the paper's
// evaluation (§7.1): mixed edge insertion/deletion sequences drawn from a
// pool of removed IDREF edges, and subtree extraction for the subgraph
// addition experiment.
package workload

import (
	"math/rand"
	"sort"

	"structix/internal/graph"
)

// MixedScript prepares the mixed workload: it removes removeFrac of the
// graph's IDREF edges (they become the insertion pool) and returns a
// deterministic script of `pairs` insert/delete pairs — each step inserts a
// random pool edge and then deletes a random present IDREF edge back into
// the pool, exactly as in §7.1.
//
// The graph is mutated (pool edges removed) before the script is computed,
// so callers can Clone the graph afterwards and replay the same script
// against several index maintainers.
func MixedScript(g *graph.Graph, removeFrac float64, pairs int, seed int64) []graph.EdgeOp {
	rng := rand.New(rand.NewSource(seed))
	pool, present := splitPool(g, removeFrac, rng)
	return pairScript(pool, present, false, pairs, func(edges [][2]graph.NodeID) int {
		return rng.Intn(len(edges))
	})
}

// SkewedScript is MixedScript with a hot spot: a fraction hotFrac of the
// IDREF edges (those incident to a random set of "hot" dnodes) receive the
// bulk of the updates — repeatedly inserted and deleted — while the rest
// of the graph stays quiet. Real update streams are rarely uniform; this
// workload probes whether maintenance quality depends on update locality.
// Like MixedScript, the graph is mutated (pool edges removed) before the
// script is computed.
func SkewedScript(g *graph.Graph, removeFrac, hotFrac float64, pairs int, seed int64) []graph.EdgeOp {
	rng := rand.New(rand.NewSource(seed))
	pool, present := splitPool(g, removeFrac, rng)
	// Hot set: the endpoints of a hotFrac-sized prefix of the pool.
	hot := make(map[graph.NodeID]bool)
	nHot := int(hotFrac * float64(len(pool)))
	for _, e := range pool[:nHot] {
		hot[e[0]] = true
		hot[e[1]] = true
	}
	return pairScript(pool, present, false, pairs, func(edges [][2]graph.NodeID) int {
		// Strongly prefer hot edges: sample up to 8 candidates.
		for t := 0; t < 8; t++ {
			i := rng.Intn(len(edges))
			if hot[edges[i][0]] || hot[edges[i][1]] {
				return i
			}
		}
		return rng.Intn(len(edges))
	})
}

// InPlaceScript is a §7.1-style mixed script that is valid against the
// graph as it stands, with no preparatory mutation: each step deletes a
// random present IDREF edge into the pool and then re-inserts a random
// pool edge.
func InPlaceScript(g *graph.Graph, pairs int, seed int64) []graph.EdgeOp {
	rng := rand.New(rand.NewSource(seed))
	return pairScript(nil, g.EdgeList(graph.IDRef), true, pairs, func(edges [][2]graph.NodeID) int {
		return rng.Intn(len(edges))
	})
}

// splitPool shuffles g's IDREF edges, removes a removeFrac prefix of them
// from g as the insertion pool, and returns that pool and the edges left.
func splitPool(g *graph.Graph, removeFrac float64, rng *rand.Rand) (pool, present [][2]graph.NodeID) {
	idref := g.EdgeList(graph.IDRef)
	rng.Shuffle(len(idref), func(i, j int) { idref[i], idref[j] = idref[j], idref[i] })
	nPool := int(removeFrac * float64(len(idref)))
	pool = append(pool, idref[:nPool]...)
	present = append(present, idref[nPool:]...)
	for _, e := range pool {
		if err := g.DeleteEdge(e[0], e[1]); err != nil {
			panic("workload: " + err.Error())
		}
	}
	return pool, present
}

// pairScript is the §7.1 pair loop: each of up to pairs steps moves a
// picked pool edge to the present side (an insertion) and a picked present
// edge back to the pool (a deletion), the deletion first when deleteFirst
// is set. It stops early when a step finds no present edge, or an empty
// pool to draw first from.
func pairScript(pool, present [][2]graph.NodeID, deleteFirst bool, pairs int, pick func([][2]graph.NodeID) int) []graph.EdgeOp {
	move := func(from, to *[][2]graph.NodeID) [2]graph.NodeID {
		i := pick(*from)
		e := (*from)[i]
		(*from)[i] = (*from)[len(*from)-1]
		*from = (*from)[:len(*from)-1]
		*to = append(*to, e)
		return e
	}
	ops := make([]graph.EdgeOp, 0, 2*pairs)
	for i := 0; i < pairs && len(present) > 0 && (deleteFirst || len(pool) > 0); i++ {
		if deleteFirst {
			del := move(&present, &pool)
			ins := move(&pool, &present)
			ops = append(ops, graph.DeleteOp(del[0], del[1]), graph.InsertOp(ins[0], ins[1], graph.IDRef))
		} else {
			ins := move(&pool, &present)
			del := move(&present, &pool)
			ops = append(ops, graph.InsertOp(ins[0], ins[1], graph.IDRef), graph.DeleteOp(del[0], del[1]))
		}
	}
	return ops
}

// SubtreeRoots returns up to n dnodes with the given label, chosen
// uniformly at random — the paper picks random "auction" dnodes whose
// descendants (via tree edges only) form the subgraphs of the Figure 12
// experiment.
func SubtreeRoots(g *graph.Graph, label string, n int, seed int64) []graph.NodeID {
	rng := rand.New(rand.NewSource(seed))
	lid, ok := g.Labels().Lookup(label)
	if !ok {
		return nil
	}
	var candidates []graph.NodeID
	g.EachNode(func(v graph.NodeID) {
		if g.Label(v) == lid {
			candidates = append(candidates, v)
		}
	})
	rng.Shuffle(len(candidates), func(i, j int) {
		candidates[i], candidates[j] = candidates[j], candidates[i]
	})
	if len(candidates) > n {
		candidates = candidates[:n]
	}
	// Drop roots nested inside other selected roots: deleting an ancestor
	// would take the descendant with it.
	selected := make(map[graph.NodeID]bool, len(candidates))
	for _, c := range candidates {
		selected[c] = true
	}
	var out []graph.NodeID
	for _, c := range candidates {
		if !hasSelectedAncestor(g, c, selected) {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ExtractAndRemove captures the subtree rooted at root as a Subgraph (see
// graph.Extract) and removes its nodes — and thereby all its internal and
// boundary edges — from the graph. This is the raw, index-free preparation
// step of the Figure 12 experiment: all subtrees are deleted up front, then
// re-added one by one under index maintenance.
func ExtractAndRemove(g *graph.Graph, root graph.NodeID, skipIDRef bool) *graph.Subgraph {
	sg := graph.Extract(g, root, skipIDRef)
	for _, v := range sg.Members {
		g.RemoveNode(v)
	}
	return sg
}

func hasSelectedAncestor(g *graph.Graph, v graph.NodeID, selected map[graph.NodeID]bool) bool {
	seen := map[graph.NodeID]bool{v: true}
	stack := []graph.NodeID{v}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		found := false
		g.EachPred(cur, func(p graph.NodeID, kind graph.EdgeKind) {
			if kind != graph.Tree || seen[p] || found {
				return
			}
			if selected[p] && p != v {
				found = true
				return
			}
			seen[p] = true
			stack = append(stack, p)
		})
		if found {
			return true
		}
	}
	return false
}
