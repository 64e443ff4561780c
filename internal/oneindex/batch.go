package oneindex

import (
	"slices"

	"structix/internal/graph"
)

// ApplyBatch applies a sequence of edge updates as one maintenance round:
// every operation is first ingested into the data graph and the iedge
// counts, collecting the distinct dnodes whose index-parent block set
// changed; then a single split phase runs over the deduplicated
// compound-block worklist; finally one deferred minimization pass merges
// until the index is minimal again.
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
	if err := x.g.ValidateOps(ops); err != nil {
		return err
	}
	x.Stats.Batches++
	// A fresh batch epoch invalidates every previous batch's dedup stamps.
	x.batchEpoch++
	if x.batchEpoch == 0 {
		clear(x.batchStamp[:cap(x.batchStamp)])
		x.batchEpoch = 1
	}
	for _, op := range ops {
		if op.Insert {
			// Per-dnode affectedness test: v's index-parent *block* set
			// changes iff v has no parent in I[u] yet. (The per-edge path
			// tests the iedge I[u]→I[v] instead, which is equivalent only
			// while the index is stable — mid-batch it is not.)
			had := x.hasParentIn(op.V, x.inodeOf[op.U])
			if err := x.g.AddEdge(op.U, op.V, op.Kind); err != nil {
				panic("oneindex: validated op failed: " + err.Error())
			}
			x.addIEdgeCount(x.inodeOf[op.U], x.inodeOf[op.V], 1)
			x.noteBatchOp(op.V, had)
		} else {
			iu := x.inodeOf[op.U]
			if err := x.g.DeleteEdge(op.U, op.V); err != nil {
				panic("oneindex: validated op failed: " + err.Error())
			}
			x.addIEdgeCount(iu, x.inodeOf[op.V], -1)
			x.noteBatchOp(op.V, x.hasParentIn(op.V, iu))
		}
	}
	x.finishBatch()
	return nil
}

// noteBatchOp records one ingested operation: an unchanged index-parent set
// is a no-change op; otherwise the sink joins the batch's affected set
// (deduplicated through the epoch-stamped batchStamp vector).
func (x *Index) noteBatchOp(v graph.NodeID, unchanged bool) {
	if unchanged {
		x.Stats.UpdatesNoChange++
		return
	}
	x.Stats.UpdatesMaintained++
	if x.batchStamp[v] != x.batchEpoch {
		x.batchStamp[v] = x.batchEpoch
		x.batchAffected = append(x.batchAffected, v)
	}
}

// hasParentIn reports whether v currently has a parent inside inode iu.
func (x *Index) hasParentIn(v graph.NodeID, iu INodeID) bool {
	found := false
	x.g.EachPred(v, func(p graph.NodeID, _ graph.EdgeKind) {
		if !found && x.inodeOf[p] == iu {
			found = true
		}
	})
	return found
}

// finishBatch runs the two deferred phases over the accumulated affected
// set: one split phase seeded with every affected dnode, then one merge
// pass searching from the affected dnodes' inodes. The batch scratch
// (affected set, frontier) is reset unconditionally so no state survives
// into the next batch; the dedup stamps expire with the epoch on their own.
func (x *Index) finishBatch() {
	defer x.resetBatchScratch()
	if len(x.batchAffected) == 0 {
		return
	}
	slices.Sort(x.batchAffected)
	s := x.splitter()
	for _, v := range x.batchAffected {
		s.seed(v)
	}
	s.run()
	x.noteIntermediate()
	x.mergeFrontier()
}

// resetBatchScratch truncates the per-batch scratch: the affected set and
// the merge frontier. The dedup stamps need no clearing — the next batch's
// epoch bump invalidates them wholesale.
func (x *Index) resetBatchScratch() {
	x.batchAffected = x.batchAffected[:0]
	x.frontier = x.frontier[:0]
}

// mergeFrontier is the deferred minimization pass — the batch form of
// mergePhase, whose Lemma 3 argument it extends from one affected dnode to
// many. The index was minimal before the batch, and after the split phase
// every affected dnode v sits alone in an inode (seed singled it out; splits
// only move dnodes into fresh inodes). Every other inode X is a part of one
// pre-batch inode K whose members kept their pre-batch parent inodes, so the
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
		}
		if merged {
			queue = append(queue, i)
		}
	}
	x.frontier = f[:0]
	x.mergeQueue = queue
	x.cascadeMerges()
}
