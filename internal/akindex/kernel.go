package akindex

import (
	"slices"

	"structix/internal/graph"
	"structix/internal/ilist"
	"structix/internal/maint"
	"structix/internal/partition"
)

// kernel is the A(k) family's half of a maintenance round (maint.Kernel).
// It is the Index under another name, so the Index's method set gains
// none of the kernel's methods.
type kernel Index

// Ingest records one op that the graph already carries, with stable level
// i for its sink v: levels i+2..k of v need re-derivation. i ≥ k−1 makes
// that range empty (a no-change op); otherwise v joins the round's
// affected set. The level is evaluated against the pre-round partition,
// which stays fixed during ingestion because splits are deferred.
func (k *kernel) Ingest(r *maint.Round, op graph.EdgeOp) {
	x := (*Index)(k)
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
	k.affect(r, op.V, i)
}

// AffectNew adds a new parentless node at every level 1..k: its chain may
// merge with another parentless one.
func (k *kernel) AffectNew(r *maint.Round, v graph.NodeID) { k.affect(r, v, -1) }

// affect adds v to the round at stable level i, keeping the lowest level
// seen. Taking the minimum over a dnode's ops is conservative: extra
// singling out is undone by the merge sweep.
func (k *kernel) affect(r *maint.Round, v graph.NodeID, i int) {
	if r.Add(v) || int32(i) < k.batchLevel[v] {
		k.batchLevel[v] = int32(i)
	}
}

// Finish runs the round's split phase, seeded with every affected dnode at
// its recorded level, then one upward merge sweep from the affected
// dnodes' inodes.
func (k *kernel) Finish(affected []graph.NodeID) {
	x := (*Index)(k)
	x.Stats.Batches++
	if len(affected) == 0 {
		return
	}
	ctx := x.splitter()
	for _, v := range affected {
		x.seedSplit(ctx, v, int(x.batchLevel[v]))
	}
	ctx.run()
	x.mergeFrontier(affected)
}

// Grow extends the NodeID-indexed arrays after the data graph has grown.
func (k *kernel) Grow() {
	n, old := int(k.g.MaxNodeID()), len(k.inodeOf)
	k.inodeOf = ilist.Resize(k.inodeOf, n)
	for v := old; v < n; v++ {
		k.inodeOf[v] = NoINode
	}
	k.pos = ilist.Resize(k.pos, n)
	k.markStamp = ilist.Resize(k.markStamp, n)
	k.batchLevel = ilist.Resize(k.batchLevel, n)
}

// Place puts a newborn dnode in its A(0) label class (created if the
// label is new), as a singleton chain at levels 1..k.
func (k *kernel) Place(v graph.NodeID) {
	x := (*Index)(k)
	label := x.g.Label(v)
	var class0 INodeID = NoINode
	x.EachINodeAt(0, func(i INodeID) {
		if x.nodes[i].label == label {
			class0 = i
		}
	})
	if class0 == NoINode {
		class0 = x.newANode(0, label, NoINode)
	}
	cur := class0
	for l := 1; l <= x.k; l++ {
		cur = x.newANode(int32(l), label, cur)
	}
	x.extentAdd(cur, v)
	x.inodeOf[v] = cur
}

// Drop takes an edgeless dead dnode out of its level-k inode and frees the
// now-empty tail of its refinement-tree path.
func (k *kernel) Drop(v graph.NodeID) {
	x := (*Index)(k)
	iv := x.inodeOf[v]
	x.extentRemove(iv, v)
	x.inodeOf[v] = NoINode
	x.pub.Mark(iv)
	for id := iv; id != NoINode && len(x.nodes[id].extent) == 0 && len(x.nodes[id].child) == 0; {
		parent := x.nodes[id].parent
		x.freeANode(id)
		id = parent
	}
}

// Uncount un-counts the island edge u→w from every level's counts.
func (k *kernel) Uncount(u, w graph.NodeID) { (*Index)(k).addEdgeCounts(u, w, -1) }

// Union builds the subgraph's own minimum family and unions it in: fresh
// anodes mirror its refinement tree, then every fresh label class fuses
// with the pre-existing class of its label and the fusions cascade upward
// through the family. The cascade regroups the children of every merged
// inode, so the still-parentless root's chain already merges with any
// equal parentless chain here, with or without incoming edges: the root
// round has no newcomer to affect.
func (k *kernel) Union(sg *graph.Subgraph, sub *graph.Graph, local, ids []graph.NodeID) graph.NodeID {
	x := (*Index)(k)
	// Existing level-0 inodes by label, to fuse the subgraph's A(0) into.
	existing0 := make(map[graph.LabelID]INodeID)
	x.EachINodeAt(0, func(i INodeID) { existing0[x.nodes[i].label] = i })
	fresh0 := x.mirror(partition.KBisimLevels(sub, x.k), ids, local)
	for _, e := range sg.Edges {
		x.addEdgeCounts(ids[e[0]], ids[e[1]], 1)
	}

	x.resetCascade()
	for _, f := range fresh0 {
		if x.nodes[f] == nil {
			continue // already absorbed by an earlier cascade
		}
		host, ok := existing0[x.nodes[f].label]
		if !ok {
			continue // genuinely new label
		}
		m := x.mergeANodes(host, f)
		x.cascadePush(0, m)
	}
	x.drainCascade()
	return graph.InvalidNode
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
func (x *Index) mergeFrontier(affected []graph.NodeID) {
	parents := x.frontierParents // distinct parents by level
	for l := range parents {
		parents[l] = parents[l][:0]
	}
	path := x.pathU
	for _, v := range affected {
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
