package akindex

import (
	"slices"

	"structix/internal/graph"
)

// ApplyBatch applies a sequence of edge updates as one maintenance round —
// the only maintenance driver of the family: every operation is first
// ingested into the data graph and the iedge counts, recording for each
// affected dnode the lowest level at which some operation disturbed its
// index membership; then one split phase runs over the deduplicated
// compound-block worklist; finally one upward merge sweep restores the
// unique minimum family. Figure 7 is this round over one op: InsertEdge,
// DeleteEdge, the Note and node entry points and AddSubgraph's root
// attachment all run it.
//
// The result equals applying the operations one at a time (Theorem 2: the
// minimum A(0..k) family is unique on any graph, cyclic or not), at a
// fraction of the cost: E operations share one split phase and one merge
// sweep instead of running E of each. The per-operation affectedness level
// is Figure 7's largest-stable-level test; it is evaluated against the
// pre-round partition, which stays fixed during ingestion because splits
// are deferred. Taking the minimum level over a dnode's operations is
// conservative — extra singling out is undone by the merge sweep.
//
// Operations are ingested in order; an operation may therefore delete an
// edge inserted earlier in the same batch.
//
// The batch is atomic: the whole sequence is validated against the current
// graph (simulating the ops in order) before anything is ingested. On a
// bad operation — duplicate insert, missing delete, dead endpoint,
// self-loop — ApplyBatch returns a *graph.BatchError identifying the
// offending operation and leaves the graph and the family exactly as they
// were: no edge is applied, no maintenance runs, no scratch state leaks
// into later calls.
func (x *Index) ApplyBatch(ops []graph.EdgeOp) error {
	if len(ops) == 0 {
		return nil
	}
	return x.applyRound(ops, graph.InvalidNode)
}

// applyRound validates ops and runs one maintenance round over them. A
// dnode also, when not InvalidNode, joins the affected set at every level
// 1..k whatever the ops do: a new parentless node, which no edge op
// disturbs but which may merge with an existing chain.
func (x *Index) applyRound(ops []graph.EdgeOp, also graph.NodeID) error {
	if err := x.g.ValidateOps(ops); err != nil {
		return err
	}
	x.beginRound()
	for _, op := range ops {
		var err error
		if op.Insert {
			err = x.g.AddEdge(op.U, op.V, op.Kind)
		} else {
			err = x.g.DeleteEdge(op.U, op.V)
		}
		if err != nil {
			panic("akindex: validated op failed: " + err.Error())
		}
		x.ingest(op)
	}
	if also != graph.InvalidNode {
		x.affect(also, -1)
	}
	x.finishRound()
	return nil
}

// beginRound opens a maintenance round: a new epoch invalidates every dedup
// stamp from previous rounds; only a full wrap of the counter needs an
// actual clearing pass.
func (x *Index) beginRound() {
	x.Stats.Batches++
	x.batchEpoch++
	if x.batchEpoch == 0 {
		clear(x.batchStamp[:cap(x.batchStamp)])
		x.batchEpoch = 1
	}
}

// ingest records one op that the graph already carries, with stable level
// i for its sink v: levels i+2..k of v need re-derivation. i ≥ k−1 makes
// that range empty (a no-change op); otherwise v joins the round's
// affected set.
func (x *Index) ingest(op graph.EdgeOp) {
	delta := int32(-1)
	if op.Insert {
		delta = 1
	}
	x.addEdgeCounts(op.U, op.V, delta)
	i := x.largestStableLevel(op.U, op.V)
	if i >= x.k-1 {
		x.Stats.UpdatesNoChange++
		return
	}
	x.Stats.UpdatesMaintained++
	x.affect(op.V, i)
}

// affect adds v to the round's affected set at stable level i,
// deduplicated through the batch epoch stamp and keeping the minimum level
// seen.
func (x *Index) affect(v graph.NodeID, i int) {
	if x.batchStamp[v] != x.batchEpoch {
		x.batchStamp[v] = x.batchEpoch
		x.batchAffected = append(x.batchAffected, v)
		x.batchLevel[v] = int32(i)
	} else if int32(i) < x.batchLevel[v] {
		x.batchLevel[v] = int32(i)
	}
}

// finishRound runs the deferred phases over the accumulated affected set:
// one split phase seeded with every affected dnode at its recorded level,
// then one upward merge sweep from the affected dnodes' inodes. Truncating
// the affected set ends the round; the per-dnode dedup stamps and levels
// die with the epoch.
func (x *Index) finishRound() {
	if len(x.batchAffected) == 0 {
		return
	}
	slices.Sort(x.batchAffected)
	ctx := x.splitter()
	for _, v := range x.batchAffected {
		x.seedSplit(ctx, v, int(x.batchLevel[v]))
	}
	ctx.run()
	x.mergeFrontier()
	x.batchAffected = x.batchAffected[:0]
}

// mergeFrontier is the round's merge phase. The family was minimum before
// the round, and after the split phase each affected dnode v sits alone at
// every level it was seeded at (i+2..k for stable level i). Every other
// level-l inode X is a part of one pre-round inode K whose members kept
// their level-(l−1) parent blocks — a dnode whose parents changed below
// its seeding level keeps its parent block set there — so X's
// predecessors are parts of exactly K's old predecessors, each of them
// represented. Two such inodes under one parent with equal keys would
// therefore come from pre-round inodes with equal keys, i.e. from one K;
// but the split phase separates parts of one inode only by a level-j
// compound member that one part has as a predecessor and the other lacks,
// which their level-(l−1) predecessors inherit. So every newly mergeable
// pair contains an inode of some v at a seeded level — with one op, that
// is Figure 7's search from I⁽ʲ⁾[v], j = i+2..k. Merges performed change
// the predecessor sets of their inter-iedge successors and make their
// children siblings, which drainCascade regroups.
//
// The sweep runs strictly upward: level l−1 is minimal before the level-l
// frontier is processed, which makes the sibling-only candidate search
// complete — with A(l−1) minimal, equal label and predecessor sets imply
// extents in the same A(l−1) block, i.e. a shared refinement-tree parent.
// So the sweep visits the distinct refinement-tree *parents* of the
// frontier inodes, bucketed by level, and runs one keyed group-scan over
// each parent's children (mergeAmongChildren), keying each sibling set
// once however many frontier inodes share it. Merging frees inodes but
// never allocates, so a parent freed by an earlier merge is skipped (its
// children were rehung under the survivor, which the cascade scans).
func (x *Index) mergeFrontier() {
	parents := x.frontierParents // distinct parents by level
	for l := range parents {
		parents[l] = parents[l][:0]
	}
	path := x.pathU
	for _, v := range x.batchAffected {
		x.path(v, path)
		for l := int(x.batchLevel[v]) + 1; l < x.k; l++ {
			parents[l] = append(parents[l], path[l]) // parent of I⁽ˡ⁺¹⁾[v]
		}
	}

	x.resetCascade()
	for l := 0; l <= x.k-1; l++ {
		ps := parents[l]
		slices.Sort(ps)
		pv := NoINode
		for _, p := range ps {
			if p == pv {
				continue
			}
			pv = p
			if x.nodes[p] == nil {
				continue // absorbed by an earlier merge; children rehung
			}
			x.mergeAmongChildren(p)
		}
		x.drainCascade()
	}
}
