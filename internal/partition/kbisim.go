package partition

import (
	"slices"
	"sync"

	"structix/internal/graph"
	"structix/internal/sigtab"
)

// bisimScratch holds the refinement step's reusable buffers: the signature
// intern table and one node's signature. Pooled so consecutive levels (and
// consecutive constructions) churn zero steady-state allocations.
type bisimScratch struct {
	tab sigtab.Table
	sig []int32
}

var bisimPool = sync.Pool{New: func() any { return new(bisimScratch) }}

// KBisimLevels constructs the minimum A(0)..A(k) partitions of g
// (Definition 4): level 0 partitions nodes by label; level i refines level
// i−1 so that two nodes share a block iff they share a label and their
// parents cover the same set of level-(i−1) blocks. This mirrors the O(km)
// construction of Kaushik et al. [9]. The returned slice has k+1 entries.
//
// Once a level equals its predecessor the sequence has reached a fixpoint
// and all later levels are copies; the fixpoint partition is the maximal
// bisimulation, i.e. the minimum 1-index partition.
func KBisimLevels(g *graph.Graph, k int) []*Partition {
	sc := bisimPool.Get().(*bisimScratch)
	defer bisimPool.Put(sc)
	levels := make([]*Partition, k+1)
	levels[0] = ByLabel(g)
	for i := 1; i <= k; i++ {
		levels[i] = bisimStep(g, levels[i-1], sc)
		if levels[i].NumBlocks() == levels[i-1].NumBlocks() {
			// A refinement with the same block count is the same partition;
			// the remaining levels are identical.
			for j := i + 1; j <= k; j++ {
				levels[j] = levels[i].Clone()
			}
			break
		}
	}
	return levels
}

// BisimFixpoint iterates the bisimulation refinement step from the label
// partition until it stops changing, yielding the maximal-bisimulation
// partition — the minimum 1-index (an alternative to CoarsestStable used
// for cross-validation).
func BisimFixpoint(g *graph.Graph) *Partition {
	sc := bisimPool.Get().(*bisimScratch)
	defer bisimPool.Put(sc)
	p := ByLabel(g)
	for {
		next := bisimStep(g, p, sc)
		if next.NumBlocks() == p.NumBlocks() {
			return next
		}
		p = next
	}
}

// bisimStep computes the one-step refinement: nodes grouped by
// (previous block, set of previous blocks of parents). Signatures are
// interned as integer slices — first appearance assigns the next dense
// block id, so numbering follows node order exactly as before.
func bisimStep(g *graph.Graph, prev *Partition, sc *bisimScratch) *Partition {
	p := NewPartition(graph.NodeID(prev.Len()))
	sc.tab.Reset()
	sc.tab.Grow(g.NumNodes())
	g.EachNode(func(v graph.NodeID) {
		sc.sig = bisimSig(sc.sig[:0], g, prev, v)
		id, _ := sc.tab.Intern(sc.sig)
		p.SetBlock(v, id)
	})
	p.SetNumBlocks(sc.tab.Len())
	return p
}

// bisimSig appends v's refinement signature to sig — v's previous block
// followed by the sorted, deduplicated *set* (not multiset) of its
// parents' previous blocks — and returns the extended slice.
func bisimSig(sig []int32, g *graph.Graph, prev *Partition, v graph.NodeID) []int32 {
	sig = append(sig, prev.Block(v))
	start := len(sig)
	g.EachPred(v, func(u graph.NodeID, _ graph.EdgeKind) {
		sig = append(sig, prev.Block(u))
	})
	slices.Sort(sig[start:])
	out := start
	last := int32(-2)
	for _, b := range sig[start:] {
		if b != last {
			sig[out] = b
			out++
			last = b
		}
	}
	return sig[:out]
}
