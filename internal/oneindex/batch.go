package oneindex

import (
	"slices"

	"structix/internal/graph"
)

// ApplyBatch applies a sequence of edge updates as one maintenance round —
// the only maintenance driver of the index: every operation is first
// ingested into the data graph and the iedge counts, collecting the
// distinct dnodes whose index-parent block set changed; then a single split
// phase runs over the deduplicated compound-block worklist; finally one
// deferred minimization pass merges until the index is minimal again.
// Figure 3 is this round over one op: InsertEdge, DeleteEdge, the Note and
// node entry points and AddSubgraph's root attachment all run it.
//
// The result is a valid minimal 1-index, and on acyclic graphs the unique
// minimum — identical to applying the operations one at a time — at a
// fraction of the cost: E operations share one split phase and one merge
// pass instead of running E of each. Deferring the merges is sound because
// merging two inodes with equal labels and index-parent sets preserves
// stability (the §5.3 argument), so minimization commutes with the rest of
// the batch.
//
// Operations are ingested in order; an operation may therefore delete an
// edge inserted earlier in the same batch.
//
// The batch is atomic: the whole sequence is validated against the current
// graph (simulating the ops in order) before anything is ingested. On a
// bad operation — duplicate insert, missing delete, dead endpoint,
// self-loop — ApplyBatch returns a *graph.BatchError identifying the
// offending operation and leaves the graph and the index exactly as they
// were: no edge is applied, no maintenance runs, no scratch state leaks
// into later calls.
func (x *Index) ApplyBatch(ops []graph.EdgeOp) error {
	if len(ops) == 0 {
		return nil
	}
	return x.applyRound(ops, graph.InvalidNode, true)
}

// applyRound validates ops and runs one maintenance round over them. A
// dnode also, when not InvalidNode, joins the affected set whatever the
// ops do: a new parentless node or subgraph root, which no edge op
// disturbs but which may merge with an existing inode. merge false skips
// the merge phase (the propagate baseline).
func (x *Index) applyRound(ops []graph.EdgeOp, also graph.NodeID, merge bool) error {
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
			panic("oneindex: validated op failed: " + err.Error())
		}
		x.ingest(op)
	}
	if also != graph.InvalidNode {
		x.affect(also)
	}
	x.finishRound(merge)
	return nil
}

// beginRound opens a maintenance round: a fresh epoch invalidates every
// previous round's dedup stamps.
func (x *Index) beginRound() {
	x.Stats.Batches++
	x.batchEpoch++
	if x.batchEpoch == 0 {
		clear(x.batchStamp[:cap(x.batchStamp)])
		x.batchEpoch = 1
	}
}

// ingest records one op that the graph already carries: it moves the iedge
// count, and when the op changed v's index-parent block set — v has no
// parent in I[u] other than u itself — v joins the round's affected set.
// The test reads the pre-round partition, which stays fixed until
// finishRound. When no other dedge runs from I[u] to I[v] it needs no
// scan of v's parents; on a stable index it is Figure 3's iedge test.
func (x *Index) ingest(op graph.EdgeOp) {
	iu := x.inodeOf[op.U]
	delta := int32(-1)
	if op.Insert {
		delta = 1
	}
	others := x.addIEdgeCount(iu, x.inodeOf[op.V], delta) // dedges I[u]→I[v] besides u→v
	if op.Insert {
		others--
	}
	kept := false
	if others > 0 {
		x.g.EachPred(op.V, func(p graph.NodeID, _ graph.EdgeKind) {
			if !kept && p != op.U && x.inodeOf[p] == iu {
				kept = true
			}
		})
	}
	if kept {
		x.Stats.UpdatesNoChange++
		return
	}
	x.Stats.UpdatesMaintained++
	x.affect(op.V)
}

// affect adds v to the round's affected set, deduplicated through the
// epoch-stamped batchStamp vector.
func (x *Index) affect(v graph.NodeID) {
	if x.batchStamp[v] != x.batchEpoch {
		x.batchStamp[v] = x.batchEpoch
		x.batchAffected = append(x.batchAffected, v)
	}
}

// finishRound runs the two deferred phases over the accumulated affected
// set: one split phase seeded with every affected dnode, then (with merge)
// one merge pass searching from the affected dnodes' inodes. Truncating the
// affected set ends the round; the dedup stamps expire with the epoch on
// their own.
func (x *Index) finishRound(merge bool) {
	if len(x.batchAffected) == 0 {
		return
	}
	slices.Sort(x.batchAffected)
	s := x.splitter()
	for _, v := range x.batchAffected {
		s.seed(v)
	}
	s.run()
	x.Stats.LastIntermediate = x.numLive
	x.Stats.MaxIntermediate = max(x.Stats.MaxIntermediate, x.numLive)
	if merge {
		x.mergeFrontier()
	}
	x.batchAffected = x.batchAffected[:0]
}

// mergeFrontier is the round's merge phase. With one affected dnode v it is
// Figure 3's: by the proof of Lemma 3 only I[v]'s merging can have been
// enabled by the update; the argument extends to many affected dnodes. The
// index was minimal before the round, and after the split phase every
// affected dnode v sits alone in an inode (seed singled it out; splits only
// move dnodes into fresh inodes). Every other inode X is a part of one
// pre-round inode K whose members kept their pre-round parent inodes, so the
// parts containing X's parents come from exactly K's old parent set; as
// parts of distinct inodes are disjoint, two such inodes with equal labels
// and parent sets would come from one K — but the split phase separates
// parts of K only by a parent one has and the other lacks. So every newly
// mergeable pair contains some I[v]: the frontier is those singletons, and
// merges performed change the parent sets of their index successors only,
// which cascadeMerges regroups. The index is minimal afterwards
// (Definition 5) without a global scan.
// Each frontier inode searches its own partners (findMergeCandidate, under
// its least-fan-out parent) and every survivor seeds the cascade. The pass
// neither searches from split parts nor keys a parent's whole successor
// list: on XMark the parents of those parts are hubs (open_auctions,
// watches) with thousands of successors, and keying them cost ≈11,600
// signatures per 8-op batch on xmark-f2 (BenchmarkApplyBatchXMark) against
// ≈15 merges found.
func (x *Index) mergeFrontier() {
	f := x.frontier[:0]
	for _, v := range x.batchAffected {
		f = append(f, x.inodeOf[v])
	}
	queue := x.mergeQueue[:0]
	for _, i := range f {
		if x.inodes[i] == nil {
			continue // absorbed by an earlier frontier inode's merge
		}
		merged := false
		for {
			j := x.findMergeCandidate(i)
			if j == NoINode {
				break
			}
			i = x.merge(i, j)
			merged = true
			if len(f) == 1 {
				// Non-frontier inodes are pairwise unmergeable, so a lone
				// frontier inode has at most one partner (Figure 3).
				break
			}
		}
		if merged {
			queue = append(queue, i)
		}
	}
	x.frontier = f[:0]
	x.mergeQueue = queue
	x.cascadeMerges()
}
