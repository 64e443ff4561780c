// Package gtest provides shared test fixtures: the example graphs from the
// paper's figures and randomized graph/update generators used by the test
// suites of several packages.
package gtest

import (
	"math/rand"
	"slices"
	"strconv"

	"structix/internal/graph"
)

// Fig2 builds the running example of the paper's Figure 2.
//
// The data graph (a) has root r with children 1 (label a) and 2 (label e);
// b-labeled nodes 3, 4, 5 with edges 1→3, 1→4, 1→5, 2→5; and c-labeled
// nodes 6, 7, 8 with edges 3→6, 4→7, 5→8. The minimum 1-index before the
// update is {r},{1},{2},{3,4},{5},{6,7},{8} (Figure 2(b), 7 inodes).
// Inserting the dedge 2→4 first splits {3,4} and then {6,7} (split phase,
// Figures 2(c)-(d)), after which the merge phase produces
// {r},{1},{2},{3},{4,5},{6},{7,8} (Figure 2(f), 7 inodes).
//
// It returns the graph, the endpoints (u, v) = (2, 4) of the dedge the
// figure inserts, and a name→NodeID map for assertions.
func Fig2() (g *graph.Graph, u, v graph.NodeID, ids map[string]graph.NodeID) {
	g = graph.New()
	r := g.AddRoot()
	n1 := g.AddNode("a")
	n2 := g.AddNode("e")
	n3 := g.AddNode("b")
	n4 := g.AddNode("b")
	n5 := g.AddNode("b")
	n6 := g.AddNode("c")
	n7 := g.AddNode("c")
	n8 := g.AddNode("c")
	for _, e := range [][2]graph.NodeID{
		{r, n1}, {r, n2},
		{n1, n3}, {n1, n4}, {n1, n5}, {n2, n5},
		{n3, n6}, {n4, n7}, {n5, n8},
	} {
		mustAdd(g, e[0], e[1])
	}
	ids = map[string]graph.NodeID{
		"r": r, "1": n1, "2": n2, "3": n3, "4": n4,
		"5": n5, "6": n6, "7": n7, "8": n8,
	}
	return g, n2, n4, ids
}

// Fig4 builds the cyclic example of the paper's Figure 4, for which minimal
// 1-indexes are not unique: nodes 1 and 2 share label a and form a 2-cycle,
// both reachable from the root. The minimum 1-index is {r},{1,2}; the
// partition {r},{1},{2} is minimal (1 and 2 have different index-parent
// sets when separated) but not minimum.
func Fig4() (g *graph.Graph, ids map[string]graph.NodeID) {
	g = graph.New()
	r := g.AddRoot()
	n1 := g.AddNode("a")
	n2 := g.AddNode("a")
	mustAdd(g, r, n1)
	mustAdd(g, r, n2)
	mustAdd(g, n1, n2)
	mustAdd(g, n2, n1)
	return g, map[string]graph.NodeID{"r": r, "1": n1, "2": n2}
}

// Fig5 builds a graph in the spirit of the paper's Figure 5, where a single
// edge insertion makes the intermediate (post-split, pre-merge) 1-index
// Ω(n) larger than both the old and the new index.
//
// Three identical chains of length depth hang off roots p1, p2, p3 (label
// p), all children of the root; a q-labeled node q additionally points to
// p3. Before the update the minimum 1-index merges the p1 and p2 chains
// ({p1,p2} have index parents {ROOT}, p3 has {ROOT, q}). Inserting q→p1
// transiently splits the whole p1 chain out, after which the merge phase
// re-merges it with the p3 chain. It returns the graph, the edge (q, p1) to
// insert, and the chain depth.
func Fig5(depth int) (g *graph.Graph, u, v graph.NodeID) {
	g = graph.New()
	r := g.AddRoot()
	q := g.AddNode("q")
	mustAdd(g, r, q)
	chain := func() graph.NodeID {
		top := g.AddNode("p")
		mustAdd(g, r, top)
		cur := top
		for i := 0; i < depth; i++ {
			next := g.AddNode("t")
			mustAdd(g, cur, next)
			cur = next
		}
		return top
	}
	p1 := chain()
	_ = chain() // p2
	p3 := chain()
	mustAdd(g, q, p3)
	return g, q, p1
}

// Labels used by the random generators.
var randLabels = []string{"a", "b", "c", "d", "e"}

// RandomDAG generates a rooted random acyclic graph with n non-root nodes
// and approximately extra additional forward edges beyond the spanning
// tree. Every node is reachable from the root.
func RandomDAG(rng *rand.Rand, n, extra int) *graph.Graph {
	g := graph.New()
	r := g.AddRoot()
	nodes := []graph.NodeID{r}
	for i := 0; i < n; i++ {
		v := g.AddNodeL(g.Labels().Intern(randLabels[rng.Intn(len(randLabels))]))
		// Parent chosen among earlier nodes keeps the graph acyclic and
		// rooted.
		p := nodes[rng.Intn(len(nodes))]
		mustAdd(g, p, v)
		nodes = append(nodes, v)
	}
	for i := 0; i < extra; i++ {
		a := rng.Intn(len(nodes))
		b := rng.Intn(len(nodes))
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		// Forward edge only (earlier → later) to preserve acyclicity; skip
		// edges into the root.
		if nodes[b] == r {
			continue
		}
		_ = g.AddEdge(nodes[a], nodes[b], graph.IDRef)
	}
	return g
}

// RandomCyclic generates a rooted random graph with n non-root nodes and
// approximately extra additional edges in arbitrary directions (cycles
// likely). Every node is reachable from the root.
func RandomCyclic(rng *rand.Rand, n, extra int) *graph.Graph {
	g := RandomDAG(rng, n, 0)
	nodes := g.Nodes()
	r := g.Root()
	for i := 0; i < extra; i++ {
		a := nodes[rng.Intn(len(nodes))]
		b := nodes[rng.Intn(len(nodes))]
		if a == b || b == r {
			continue
		}
		_ = g.AddEdge(a, b, graph.IDRef)
	}
	return g
}

// AddHub grows g by a hub-shaped region and returns the hub: a node below
// a random existing node, ten side nodes below the hub (labels s0..s9),
// and fan children of the hub labelled c, child i also below side j for
// every set bit j of i mod 1024. Children with distinct side sets are
// distinct inodes, so with fan ≥ 1000 the hub's inode has over a thousand
// index successors — the shape of XMark's open_auctions and watch inodes;
// with fan = 2048 every child shares its inode with one twin, so edge
// updates below the hub split and re-merge. Every new node gets a larger
// id than its parents, so a DAG stays a topologically numbered DAG.
func AddHub(rng *rand.Rand, g *graph.Graph, fan int) graph.NodeID {
	nodes := g.Nodes()
	hub := g.AddNode("hub")
	mustAdd(g, nodes[rng.Intn(len(nodes))], hub)
	var sides [10]graph.NodeID
	for j := range sides {
		sides[j] = g.AddNode("s" + strconv.Itoa(j))
		mustAdd(g, hub, sides[j])
	}
	for i := 0; i < fan; i++ {
		c := g.AddNode("c")
		mustAdd(g, hub, c)
		for j, s := range sides {
			if (i%1024)>>j&1 != 0 {
				if err := g.AddEdge(s, c, graph.IDRef); err != nil {
					panic(err)
				}
			}
		}
	}
	return hub
}

// RandomNonEdge returns a uniformly chosen pair (u, v) that is not currently
// an edge, suitable for insertion (u ≠ v, v not the root). ok is false if no
// such pair was found within a bounded number of tries.
func RandomNonEdge(rng *rand.Rand, g *graph.Graph) (u, v graph.NodeID, ok bool) {
	nodes := g.Nodes()
	if len(nodes) < 2 {
		return 0, 0, false
	}
	for tries := 0; tries < 200; tries++ {
		u = nodes[rng.Intn(len(nodes))]
		v = nodes[rng.Intn(len(nodes))]
		if u == v || v == g.Root() || g.HasEdge(u, v) {
			continue
		}
		return u, v, true
	}
	return 0, 0, false
}

// RandomOpBatch generates up to n edge operations that are valid when
// applied in order, mutating sim (a scratch clone of the target graph) as
// it goes. It draws four kinds of op:
//   - insertion of a current non-edge;
//   - deletion of an IDREF edge the batch itself inserted earlier, so a
//     batch may insert and then delete the same edge;
//   - deletion of an IDREF edge sim already had, re-inserted later in the
//     same batch;
//   - unless forwardOnly, an IDREF edge into the root, which closes a cycle.
//
// With forwardOnly set, insertions only run from a smaller to a larger
// NodeID, which preserves acyclicity on generator-built DAGs (their node
// ids are topologically ordered).
func RandomOpBatch(rng *rand.Rand, sim *graph.Graph, n int, forwardOnly bool) []graph.EdgeOp {
	var ops []graph.EdgeOp
	var pool, cut [][2]graph.NodeID // inserted by the batch; pre-existing, deleted by it
	insert := func(u, v graph.NodeID) {
		if err := sim.AddEdge(u, v, graph.IDRef); err != nil {
			panic(err)
		}
		ops = append(ops, graph.InsertOp(u, v, graph.IDRef))
		pool = append(pool, [2]graph.NodeID{u, v})
	}
	remove := func(e [2]graph.NodeID) {
		if err := sim.DeleteEdge(e[0], e[1]); err != nil {
			panic(err)
		}
		ops = append(ops, graph.DeleteOp(e[0], e[1]))
	}
	for tries := 0; len(ops)+len(cut) < n && tries < 20*n; tries++ {
		switch rng.Intn(8) {
		case 0: // an IDREF edge into the root
			if forwardOnly {
				continue
			}
			u := randomNode(rng, sim)
			if u == sim.Root() || sim.HasEdge(u, sim.Root()) {
				continue
			}
			insert(u, sim.Root())
			continue
		case 1: // a pre-existing IDREF edge, re-inserted below
			if len(ops)+len(cut)+2 > n {
				continue
			}
			u := randomNode(rng, sim)
			for _, w := range sim.Succ(u) {
				e := [2]graph.NodeID{u, w}
				if kind, _ := sim.EdgeKindOf(u, w); kind == graph.IDRef && !slices.Contains(pool, e) {
					remove(e)
					cut = append(cut, e)
					break
				}
			}
			continue
		case 2: // re-insert one cut edge, unless an insertion already did
			if len(cut) == 0 {
				break
			}
			e := cut[len(cut)-1]
			cut = cut[:len(cut)-1]
			if !sim.HasEdge(e[0], e[1]) {
				insert(e[0], e[1])
			}
			continue
		}
		if len(pool) > 0 && rng.Intn(3) == 0 {
			i := rng.Intn(len(pool))
			e := pool[i]
			pool[i] = pool[len(pool)-1]
			pool = pool[:len(pool)-1]
			remove(e)
			continue
		}
		u, v, ok := RandomNonEdge(rng, sim)
		if !ok {
			break
		}
		if forwardOnly && u > v {
			continue
		}
		insert(u, v)
	}
	for _, e := range cut {
		if !sim.HasEdge(e[0], e[1]) {
			insert(e[0], e[1])
		}
	}
	return ops
}

func randomNode(rng *rand.Rand, g *graph.Graph) graph.NodeID {
	nodes := g.Nodes()
	return nodes[rng.Intn(len(nodes))]
}

// XMarkEdgeBatches returns n batches of size distinct person→open_auction
// IDREF edges absent from g, each batch inserted and then each deleted, in
// that order, so applying the sequence leaves g as it was.
func XMarkEdgeBatches(g *graph.Graph, n, size int, seed int64) [][]graph.EdgeOp {
	var persons, auctions []graph.NodeID
	g.EachNode(func(v graph.NodeID) {
		switch g.LabelName(v) {
		case "person":
			persons = append(persons, v)
		case "open_auction":
			auctions = append(auctions, v)
		}
	})
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[[2]graph.NodeID]bool)
	seq := make([][]graph.EdgeOp, 2*n)
	for b := 0; b < n; b++ {
		for len(seq[b]) < size {
			u, v := persons[rng.Intn(len(persons))], auctions[rng.Intn(len(auctions))]
			if seen[[2]graph.NodeID{u, v}] || g.HasEdge(u, v) {
				continue
			}
			seen[[2]graph.NodeID{u, v}] = true
			seq[b] = append(seq[b], graph.InsertOp(u, v, graph.IDRef))
			seq[n+b] = append(seq[n+b], graph.DeleteOp(u, v))
		}
	}
	return seq
}

func mustAdd(g *graph.Graph, u, v graph.NodeID) {
	if err := g.AddEdge(u, v, graph.Tree); err != nil {
		panic(err)
	}
}
