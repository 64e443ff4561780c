package oneindex

import (
	"structix/internal/graph"
	"structix/internal/ilist"
	"structix/internal/maint"
	"structix/internal/partition"
)

// kernel is the 1-index's half of a maintenance round (maint.Kernel). It
// is the Index under another name, so the Index's method set gains none
// of the kernel's methods.
type kernel Index

// splitOnly is the kernel of the propagate algorithm: its rounds skip the
// merge phase (SplitOnly).
type splitOnly struct{ *kernel }

// Ingest records one op the graph already carries: it moves the iedge
// count, and when the op changed v's index-parent block set — v has no
// parent in I[u] other than u itself — v joins the round's affected set.
// The test reads the pre-round partition, which stays fixed until Finish.
// When no other dedge runs from I[u] to I[v] it needs no scan of v's
// parents; on a stable index it is Figure 3's iedge test.
//
// For a deletion the test is "does v still have a parent in I[u]": only
// then is v's index-parent set unchanged. (The condition as printed in the
// paper — any remaining dedge between the two extents — would skip a
// necessary split when v loses its last parent in I[u] while its inode
// siblings keep theirs; the proof of Lemma 3 relies on the per-v test.)
func (k *kernel) Ingest(r *maint.Round, op graph.EdgeOp) {
	x := (*Index)(k)
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
	r.Add(op.V)
}

// AffectNew adds a new parentless node or subgraph root, which may merge
// with an existing parentless inode.
func (k *kernel) AffectNew(r *maint.Round, v graph.NodeID) { r.Add(v) }

// Finish runs the round's split phase and then its merge phase.
func (k *kernel) Finish(affected []graph.NodeID) { (*Index)(k).finishRound(affected, true) }

// Finish runs the round's split phase only.
func (k splitOnly) Finish(affected []graph.NodeID) { (*Index)(k.kernel).finishRound(affected, false) }

// Grow extends the NodeID-indexed arrays after the data graph has grown.
func (k *kernel) Grow() {
	n, old := int(k.g.MaxNodeID()), len(k.inodeOf)
	k.inodeOf = ilist.Resize(k.inodeOf, n)
	for v := old; v < n; v++ {
		k.inodeOf[v] = NoINode
	}
	k.pos = ilist.Resize(k.pos, n)
	k.markStamp = ilist.Resize(k.markStamp, n)
}

// Place puts a newborn dnode in a fresh singleton inode.
func (k *kernel) Place(v graph.NodeID) {
	x := (*Index)(k)
	x.attachDNode(v, x.newINode(x.g.Label(v)))
}

// Drop takes an edgeless dead dnode out of its inode, freeing the inode
// when it empties. Every other inode keeps its index-parent set, so
// minimality is preserved.
func (k *kernel) Drop(v graph.NodeID) {
	x := (*Index)(k)
	iv := x.inodeOf[v]
	x.detachDNode(v)
	x.inodeOf[v] = NoINode
	x.pub.Mark(iv)
	if len(x.inodes[iv].extent) == 0 {
		x.freeINode(iv)
	}
}

// Uncount un-counts the island edge u→w from its iedge.
func (k *kernel) Uncount(u, w graph.NodeID) {
	x := (*Index)(k)
	x.addIEdgeCount(x.inodeOf[u], x.inodeOf[w], -1)
}

// Union builds the subgraph's own minimum 1-index and unions it into the
// index: one fresh inode per block, then the internal edges' iedge
// counts. The subgraph root has no internal incoming edge, so it lands in
// a singleton inode (labels alone cannot merge a parentless node with a
// parented one); the root round affects it, even when no edge enters it,
// since it may still join another parentless inode.
func (k *kernel) Union(sg *graph.Subgraph, sub *graph.Graph, local, ids []graph.NodeID) graph.NodeID {
	x := (*Index)(k)
	subPart := partition.CoarsestStable(sub, partition.ByLabel(sub))
	blockTo := make(map[int32]INodeID)
	for li, real := range ids {
		b := subPart.Block(local[li])
		in, ok := blockTo[b]
		if !ok {
			in = x.newINode(x.g.Label(real))
			blockTo[b] = in
		}
		x.attachDNode(real, in)
	}
	for _, e := range sg.Edges {
		x.addIEdgeCount(x.inodeOf[ids[e[0]]], x.inodeOf[ids[e[1]]], 1)
	}
	return ids[0]
}

// finishRound ends a round (the kernels' Finish): one split phase seeded
// with every affected dnode, then, with merge, one merge pass searching
// from the affected dnodes' inodes.
func (x *Index) finishRound(affected []graph.NodeID, merge bool) {
	x.Stats.Batches++
	if len(affected) == 0 {
		return
	}
	s := x.splitter()
	for _, v := range affected {
		s.seed(v)
	}
	s.run()
	x.Stats.LastIntermediate = x.numLive
	x.Stats.MaxIntermediate = max(x.Stats.MaxIntermediate, x.numLive)
	if merge {
		x.mergeFrontier(affected)
	}
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
func (x *Index) mergeFrontier(affected []graph.NodeID) {
	f := x.frontier[:0]
	for _, v := range affected {
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
