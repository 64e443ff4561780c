package partition

import (
	"math/rand"
	"testing"

	"structix/internal/datagen"
	"structix/internal/graph"
	"structix/internal/gtest"
)

// wholeBlockLevels is KBisimLevels (k ≥ 0) or, for k < 0, CoarsestStable
// from the label partition, run with the engine's round as it was before
// touched-only keying: the oracle of TestRefineTouchedOnly. Every member
// of a re-keyed block gets its signature, and every block is re-keyed in
// the first round and whenever a quarter of the nodes moved.
func wholeBlockLevels(g *graph.Graph, k int) []*Partition {
	levels := []*Partition{ByLabel(g)}
	r := newRefiner(g, levels[0])
	defer refinerPool.Put(r)
	var gr grouper
	for all := true; k < 0 || len(levels) <= k; all = false {
		if !wholeBlockRound(r, &gr, all) {
			if k < 0 {
				return []*Partition{r.partition()}
			}
			for len(levels) <= k {
				levels = append(levels, levels[len(levels)-1].Clone())
			}
			break
		}
		levels = append(levels, r.partition())
	}
	return levels
}

func wholeBlockRound(r *refiner, gr *grouper, all bool) bool {
	r.dirty = r.dirty[:0]
	if all || 4*len(r.moved) >= len(r.elems) {
		for b := int32(0); b < r.nb; b++ {
			if r.end[b]-r.start[b] > 1 {
				r.dirty = append(r.dirty, b)
			}
		}
	} else {
		for _, u := range r.moved {
			for _, w := range r.succ[r.succOff[u]:r.succOff[u+1]] {
				if b := r.blockOf[w]; b != NoBlock && !r.mark[b] && r.end[b]-r.start[b] > 1 {
					r.mark[b] = true
					r.dirty = append(r.dirty, b)
				}
			}
		}
		for _, b := range r.dirty {
			r.mark[b] = false
		}
	}
	r.split = r.split[:0]
	for _, b := range r.dirty {
		gr.tab.Reset()
		for i := r.start[b]; i < r.end[b]; i++ {
			r.grp[i], _ = gr.tab.Intern(gr.signature(r, r.elems[i]))
		}
		if n := gr.tab.Len(); n > 1 {
			r.split = append(r.split, b, int32(n))
		}
	}
	r.moved = r.moved[:0]
	for i := 0; i < len(r.split); i += 2 {
		r.splitBlock(r.split[i], int(r.split[i+1]))
	}
	return len(r.moved) > 0
}

// requireSameIDs fails unless p and q give every node the same block id.
func requireSameIDs(t *testing.T, what string, p, q *Partition) {
	t.Helper()
	if p.NumBlocks() != q.NumBlocks() || p.Len() != q.Len() {
		t.Fatalf("%s: %d blocks over %d nodes, want %d over %d", what, p.NumBlocks(), p.Len(), q.NumBlocks(), q.Len())
	}
	for v := graph.NodeID(0); int(v) < p.Len(); v++ {
		if p.Block(v) != q.Block(v) {
			t.Fatalf("%s: node %d in block %d, want %d", what, v, p.Block(v), q.Block(v))
		}
	}
}

// TestRefineTouchedOnly checks the touched-only round, on one worker and
// on four: CoarsestStable against NaiveCoarsestStable (on the small
// graphs) and against the whole-block round's fixpoint, and every level
// of KBisimLevels(g, 5) against the whole-block round, block id for block
// id. The corpus holds random DAGs and cyclic graphs with dead slots and
// a hub, and xmark-d8, whose first rounds cross parallelWork.
func TestRefineTouchedOnly(t *testing.T) {
	type input struct {
		name  string
		g     *graph.Graph
		naive bool
	}
	var corpus []input
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, g := range []*graph.Graph{gtest.RandomDAG(rng, 120, 50), gtest.RandomCyclic(rng, 120, 90)} {
			gtest.AddHub(rng, g, 40+int(seed)*30)
			nodes := g.Nodes()
			for removed := 0; removed < 15; {
				if v := nodes[rng.Intn(len(nodes))]; v != g.Root() && g.Alive(v) {
					g.RemoveNode(v)
					removed++
				}
			}
			corpus = append(corpus, input{"random", g, true})
		}
	}
	corpus = append(corpus, input{"xmark-d8", datagen.XMark(datagen.DefaultXMark(8, 1, 1)), false})

	defer func() { forceWorkers = 0 }()
	for _, workers := range []int{1, 4} {
		forceWorkers = workers
		for i, in := range corpus {
			cs := CoarsestStable(in.g, ByLabel(in.g))
			if in.naive && !Equal(cs, NaiveCoarsestStable(in.g, ByLabel(in.g))) {
				t.Fatalf("workers=%d %s #%d: CoarsestStable differs from NaiveCoarsestStable", workers, in.name, i)
			}
			requireSameIDs(t, in.name+" CoarsestStable", cs, wholeBlockLevels(in.g, -1)[0])
			got, want := KBisimLevels(in.g, 5), wholeBlockLevels(in.g, 5)
			for l := range want {
				requireSameIDs(t, in.name+" KBisimLevels", got[l], want[l])
			}
		}
	}
}
