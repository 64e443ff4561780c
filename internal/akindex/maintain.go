package akindex

import (
	"slices"

	"structix/internal/graph"
	"structix/internal/ilist"
)

// largestStableLevel returns the largest level l such that v has a parent
// other than u in the extent of I⁽ˡ⁾[u], or −1 if it has none at any
// level (equivalently: −1 when no such parent shares even u's label
// class). Skipping u discounts the edge u→v of an insertion the graph
// already carries; after a deletion u is no parent of v anyway. Levels
// i+2..k of v are the ones the update disturbs: the A(i+1)-index — and
// everything below — is unaffected.
func (x *Index) largestStableLevel(u, v graph.NodeID) int {
	pu, pp := x.pathU, x.pathP
	x.path(u, pu)
	best := -1
	x.g.EachPred(v, func(p graph.NodeID, _ graph.EdgeKind) {
		if best == x.k || p == u {
			return
		}
		x.path(p, pp)
		// Paths converge upward: find the highest level where they agree.
		for l := x.k; l > best; l-- {
			if pp[l] == pu[l] {
				best = l
				return
			}
		}
	})
	return best
}

// ---- split phase ----

// akCompound is a compound block at one level: the inodes a former
// A(level)-inode has been split into.
type akCompound struct {
	level int
	ids   []INodeID
}

// akOrigRec records one original inode that lost dnodes in a three-way
// split, with the hats carved out of it.
type akOrigRec struct {
	orig INodeID
	hats []INodeID
}

// idSize pairs an inode with its extent size for the compound-member sort.
type idSize struct {
	id   INodeID
	size int
}

// akSplitCtx is the reusable state of one A(k) split phase. Like the
// 1-index splitCtx it lives on the Index so that queues, dense per-inode
// scratch arrays, snapshot buffers and three-way-split records keep their
// backing storage across maintenance calls. All former per-phase maps are
// dense slices indexed by INodeID, invalidated by epoch stamps instead of
// cleared.
type akSplitCtx struct {
	x        *Index
	byLevel  [][]*akCompound // queue buckets indexed by level 0..k-1
	memberOf []*akCompound   // by INodeID; nil when not in a queued compound
	free     []*akCompound   // compound pool

	// seeding scratch
	seedOld, seedNew []INodeID
	single           []bool

	// step scratch
	s1, s2 []graph.NodeID
	pairs  []idSize

	// threeWay scratch, all per-original dense arrays valid only under the
	// current owEpoch: the cat-1/cat-2 hats carved from an original, its
	// record index (−1 when none yet), and the drained-dead flag.
	owEpoch     uint32
	owStamp     []uint32
	hat1, hat2  []INodeID
	recOf       []int32
	deadStamp   []uint32
	recs        []akOrigRec // flat record arena, reused
	recsByLevel [][]int32   // per-level indexes into recs
	oldPath     []INodeID
	newPath     []INodeID
	parts       []INodeID
}

// splitter returns the index's reusable split context.
func (x *Index) splitter() *akSplitCtx {
	if x.split == nil {
		x.split = &akSplitCtx{
			x:           x,
			byLevel:     make([][]*akCompound, x.k),
			seedOld:     make([]INodeID, x.k+1),
			seedNew:     make([]INodeID, x.k+1),
			single:      make([]bool, x.k+1),
			recsByLevel: make([][]int32, x.k+1),
			oldPath:     make([]INodeID, x.k+1),
			newPath:     make([]INodeID, x.k+1),
		}
	}
	return x.split
}

func (c *akSplitCtx) member(id INodeID) *akCompound {
	if int(id) < len(c.memberOf) {
		return c.memberOf[id]
	}
	return nil
}

func (c *akSplitCtx) setMember(id INodeID, cb *akCompound) {
	for int(id) >= len(c.memberOf) {
		c.memberOf = append(c.memberOf, nil)
	}
	c.memberOf[id] = cb
}

func (c *akSplitCtx) newCompound(level int, ids ...INodeID) *akCompound {
	if n := len(c.free); n > 0 {
		cb := c.free[n-1]
		c.free = c.free[:n-1]
		cb.level = level
		cb.ids = append(cb.ids[:0], ids...)
		return cb
	}
	return &akCompound{level: level, ids: append([]INodeID(nil), ids...)}
}

// seedSplit singles v out at levels i+2..k, queuing the resulting compound
// blocks into ctx. When an inode on v's path is already a member of a
// queued compound — several affected dnodes of one round can share path
// prefixes — the new hat joins that compound instead of opening a new one:
// the hat's members were carved out of the compound member, so the
// compound's union (what the rest of the index is stable against) is
// unchanged.
func (x *Index) seedSplit(ctx *akSplitCtx, v graph.NodeID, i int) {
	old := ctx.seedOld
	x.path(v, old)
	// single[l]: I⁽ˡ⁾[v] already contains only v.
	single := ctx.single
	single[x.k] = len(x.nodes[old[x.k]].extent) == 1
	for l := x.k - 1; l >= 0; l-- {
		single[l] = single[l+1] && len(x.nodes[old[l]].child) == 1
	}
	newPath := ctx.seedNew
	copy(newPath, old)
	hi := -1 // highest level where a hat was created
	for l := i + 2; l <= x.k; l++ {
		if single[l] {
			break // all higher levels are singletons too
		}
		newPath[l] = x.newANode(int32(l), x.g.Label(v), newPath[l-1])
		hi = l
		x.Stats.Splits++
	}
	if hi < 0 {
		return
	}
	// Fix counts before touching tree links: reassignPath derives v's
	// old path from the (still unmodified) parent pointers.
	x.reassignPath(v, newPath)
	if hi < x.k {
		// Levels above hi were already v-only; re-hang that subchain
		// under the new hat chain.
		sub := old[hi+1]
		x.removeChild(old[hi], sub)
		x.nodes[sub].parent = newPath[hi]
		x.addChild(newPath[hi], sub)
	}
	for l := i + 2; l <= hi && l <= x.k-1; l++ {
		if cb := ctx.member(old[l]); cb != nil {
			cb.ids = append(cb.ids, newPath[l])
			ctx.setMember(newPath[l], cb)
		} else {
			ctx.push(ctx.newCompound(l, newPath[l], old[l]))
		}
	}
}

func (c *akSplitCtx) push(cb *akCompound) {
	c.byLevel[cb.level] = append(c.byLevel[cb.level], cb)
	for _, id := range cb.ids {
		c.setMember(id, cb)
	}
}

func (c *akSplitCtx) popLowest() *akCompound {
	for l := range c.byLevel {
		if n := len(c.byLevel[l]); n > 0 {
			cb := c.byLevel[l][n-1]
			c.byLevel[l] = c.byLevel[l][:n-1]
			for _, id := range cb.ids {
				c.setMember(id, nil)
			}
			return cb
		}
	}
	return nil
}

func (c *akSplitCtx) run() {
	for {
		cb := c.popLowest()
		if cb == nil {
			return
		}
		c.step(cb)
		c.free = append(c.free, cb)
	}
}

// step processes one compound block at level j: pick its smallest member I,
// re-queue the rest if ≥2 remain, and three-way split the inodes of levels
// j+1..k by Succ(I) and Succ(𝓘−{I}) via the refinement tree (§6).
func (c *akSplitCtx) step(cb *akCompound) {
	x := c.x
	c.pairs = c.pairs[:0]
	for _, id := range cb.ids {
		c.pairs = append(c.pairs, idSize{id: id, size: x.ExtentSize(id)})
	}
	slices.SortFunc(c.pairs, func(a, b idSize) int {
		if a.size != b.size {
			return a.size - b.size
		}
		return int(a.id) - int(b.id)
	})
	for i, p := range c.pairs {
		cb.ids[i] = p.id
	}
	rest := cb.ids[1:]
	if len(cb.ids) >= 3 {
		c.push(c.newCompound(cb.level, rest...))
	}
	// New epoch invalidates all previous split marks; no clearing pass.
	x.splitEpoch++
	c.s1 = x.markExtentSucc(c.s1[:0], cb.ids[:1], 1)
	c.s2 = x.markExtentSucc(c.s2[:0], rest, 2)
	c.threeWay(cb.level, c.s1)
}

// markExtentSucc marks the dnode successors of the (descendant) extents of
// ids with the given bit under the current split epoch, appending the newly
// marked dnodes to out.
func (x *Index) markExtentSucc(out []graph.NodeID, ids []INodeID, bit uint64) []graph.NodeID {
	base := x.splitEpoch << 2
	for _, id := range ids {
		x.eachExtentDnode(id, func(u graph.NodeID) {
			x.g.EachSucc(u, func(w graph.NodeID, _ graph.EdgeKind) {
				st := x.markStamp[w]
				if st < base {
					st = base // stale stamp from an earlier epoch
				}
				if st&bit == 0 {
					x.markStamp[w] = st | bit
					out = append(out, w)
				}
			})
		})
	}
	return out
}

// threeWay splits, at every level l ∈ j+1..k simultaneously, each inode
// containing a dnode of s1 = Succ(I) into its Succ(I)∩Succ(rest),
// Succ(I)−Succ(rest) and remainder parts. The split is carried out by
// walking each hit dnode's refinement-tree path and moving it onto a chain
// of per-(original-inode, category) "hat" siblings, exactly as described in
// §6. Inodes missed by s1 stay whole (they are stable with respect to the
// compound's union).
func (c *akSplitCtx) threeWay(j int, s1 []graph.NodeID) {
	x := c.x
	// Every per-original array is indexed by the original's INodeID; all
	// originals are live at entry, so sizing to len(x.nodes) now covers them
	// even though hats allocated below may grow the arena.
	n := len(x.nodes)
	c.owEpoch++
	if c.owEpoch == 0 { // stamp wrap: invalidate everything the hard way
		clear(c.owStamp[:cap(c.owStamp)])
		clear(c.deadStamp[:cap(c.deadStamp)])
		c.owEpoch = 1
	}
	c.owStamp = ilist.Resize(c.owStamp, n)
	c.deadStamp = ilist.Resize(c.deadStamp, n)
	c.hat1 = ilist.Resize(c.hat1, n)
	c.hat2 = ilist.Resize(c.hat2, n)
	c.recOf = ilist.Resize(c.recOf, n)
	for l := range c.recsByLevel {
		c.recsByLevel[l] = c.recsByLevel[l][:0]
	}
	nrecs := 0

	oldPath, newPath := c.oldPath, c.newPath
	for _, w := range s1 {
		cat2 := x.markStamp[w]&2 != 0 // w ∈ s1 ⇒ stamp is current-epoch
		x.path(w, oldPath)
		copy(newPath, oldPath)
		for l := j + 1; l <= x.k; l++ {
			orig := oldPath[l]
			if c.owStamp[orig] != c.owEpoch {
				c.owStamp[orig] = c.owEpoch
				c.hat1[orig], c.hat2[orig] = NoINode, NoINode
				c.recOf[orig] = -1
			}
			h := c.hat1[orig]
			if cat2 {
				h = c.hat2[orig]
			}
			if h == NoINode {
				h = x.newANode(int32(l), x.nodes[orig].label, newPath[l-1])
				if cat2 {
					c.hat2[orig] = h
				} else {
					c.hat1[orig] = h
				}
				ri := c.recOf[orig]
				if ri < 0 {
					if nrecs == len(c.recs) {
						c.recs = append(c.recs, akOrigRec{})
					}
					ri = int32(nrecs)
					nrecs++
					c.recs[ri].orig = orig
					c.recs[ri].hats = c.recs[ri].hats[:0]
					c.recOf[orig] = ri
					c.recsByLevel[l] = append(c.recsByLevel[l], ri)
				}
				c.recs[ri].hats = append(c.recs[ri].hats, h)
			}
			newPath[l] = h
		}
		x.reassignPath(w, newPath)
	}

	// Cleanup: drop originals that were fully drained, level k first so
	// that higher-level child sets empty out.
	for l := x.k; l > j; l-- {
		for _, ri := range c.recsByLevel[l] {
			r := &c.recs[ri]
			nd := x.nodes[r.orig]
			if (int(nd.level) == x.k && len(nd.extent) == 0) ||
				(int(nd.level) < x.k && len(nd.child) == 0) {
				x.freeANode(r.orig)
				c.deadStamp[r.orig] = c.owEpoch
			}
		}
	}

	// Compound bookkeeping for levels j+1..k−1 and split accounting.
	for l := j + 1; l <= x.k; l++ {
		for _, ri := range c.recsByLevel[l] {
			r := &c.recs[ri]
			c.parts = append(c.parts[:0], r.hats...)
			if c.deadStamp[r.orig] != c.owEpoch {
				c.parts = append(c.parts, r.orig)
			}
			x.Stats.Splits += len(c.parts) - 1
			if l == x.k {
				continue // level-k splits never seed compound blocks
			}
			if cb := c.member(r.orig); cb != nil {
				// Replace r.orig in its queued compound with the parts.
				keep := cb.ids[:0]
				for _, id := range cb.ids {
					if id != r.orig {
						keep = append(keep, id)
					}
				}
				cb.ids = append(keep, c.parts...)
				c.setMember(r.orig, nil)
				for _, id := range c.parts {
					c.setMember(id, cb)
				}
			} else if len(c.parts) >= 2 {
				c.push(c.newCompound(l, c.parts...))
			}
		}
	}
}

// ---- merge phase ----

// resetCascade readies the shared merge cascade queue (buckets for levels
// 0..k−1). The queue is shared by mergeFrontier and the A(0) fusion of
// the kernel's Union — never active in both at once.
func (x *Index) resetCascade() {
	for l := range x.cascade {
		x.cascade[l] = x.cascade[l][:0]
	}
}

func (x *Index) cascadePush(l int, id INodeID) {
	x.cascade[l] = append(x.cascade[l], id)
}

// drainCascade pops queued merged inodes, lowest level first, until the
// cascade is empty. Merging two inodes changes the index-parent sets of
// exactly their inter-iedge successors and makes their refinement-tree
// children siblings, so each popped inode regroups both
// (mergeAmongChildren, mergeAmongSuccessors), queuing the merges that
// result in turn.
func (x *Index) drainCascade() {
	for {
		var cur INodeID = NoINode
		for l := range x.cascade {
			if n := len(x.cascade[l]); n > 0 {
				cur = x.cascade[l][n-1]
				x.cascade[l] = x.cascade[l][:n-1]
				break
			}
		}
		if cur == NoINode {
			return
		}
		if x.nodes[cur] == nil {
			continue // absorbed by a later merge while queued
		}
		x.mergeAmongChildren(cur)
		x.mergeAmongSuccessors(cur)
	}
}

// mergeGroupRun merges each ≥2-member group accumulated in
// x.mergeGroups[0..ngroups) and pushes the survivors onto the cascade at
// level l+1 (when below k).
func (x *Index) mergeGroupRun(ngroups, l int) {
	for gid := 0; gid < ngroups; gid++ {
		class := x.mergeGroups[gid]
		if len(class) < 2 {
			continue
		}
		m := class[0]
		for _, j := range class[1:] {
			m = x.mergeANodes(m, j)
		}
		if l+1 <= x.k-1 {
			x.cascadePush(l+1, m)
		}
	}
}

// internMergeGroup files inode j under its merge-key signature group,
// returning the updated group count. withParent additionally keys by j's
// refinement-tree parent (successor grouping, where candidates can live
// under different parents).
func (x *Index) internMergeGroup(j INodeID, ngroups int, withParent bool) int {
	sig := x.mergeSig[:0]
	if withParent {
		sig = append(sig, int32(x.nodes[j].parent))
	}
	sig = x.mergeKeySig(sig, j)
	x.mergeSig = sig
	gid, fresh := x.mergeTab.Intern(sig)
	if fresh {
		if ngroups == len(x.mergeGroups) {
			x.mergeGroups = append(x.mergeGroups, nil)
		}
		x.mergeGroups[gid] = x.mergeGroups[gid][:0]
		ngroups++
	}
	x.mergeGroups[gid] = append(x.mergeGroups[gid], j)
	return ngroups
}

// mergeAmongSuccessors groups the inter-iedge successors of a freshly
// merged level-l inode by (refinement-tree parent, label, index parents in
// A(l)) and merges each group. Grouping interns integer signatures into the
// reusable table; groups are processed in first-appearance order over the
// sorted successor list, which is deterministic.
func (x *Index) mergeAmongSuccessors(i INodeID) {
	l := int(x.nodes[i].level)
	x.groupSnap = append(x.groupSnap[:0], x.nodes[i].succB.IDs...)
	if len(x.groupSnap) < 2 {
		return
	}
	x.mergeTab.Reset()
	x.mergeTab.Grow(len(x.groupSnap))
	ngroups := 0
	for _, j := range x.groupSnap {
		ngroups = x.internMergeGroup(j, ngroups, true)
	}
	x.mergeGroupRun(ngroups, l)
}

// mergeAmongChildren groups the refinement-tree children of a freshly
// merged level-l inode by (label, index parents in A(l)) and merges each
// group. Merging two parents can make their children siblings for the
// first time: a child pair with equal keys need not share an inter-iedge
// predecessor with the merged parent, so only the child scan finds it. It
// is also the merge sweep's partner search (see mergeFrontier).
func (x *Index) mergeAmongChildren(i INodeID) {
	l := int(x.nodes[i].level)
	if l >= x.k {
		return // level-k inodes hold extents, not children
	}
	x.childBuf = append(x.childBuf[:0], x.nodes[i].child...)
	if len(x.childBuf) < 2 {
		return
	}
	x.mergeTab.Reset()
	x.mergeTab.Grow(len(x.childBuf))
	ngroups := 0
	for _, c := range x.childBuf {
		ngroups = x.internMergeGroup(c, ngroups, false)
	}
	x.mergeGroupRun(ngroups, l)
}

// mergeANodes unions two same-level inodes that share a label, a
// refinement-tree parent and an index-parent set, returning the survivor.
// At level k the smaller extent is moved; below level k only tree links and
// iedge counts are spliced — no dnode is touched.
func (x *Index) mergeANodes(a, b INodeID) INodeID {
	na, nb := x.nodes[a], x.nodes[b]
	if na.level != nb.level || na.label != nb.label || na.parent != nb.parent {
		panic("akindex: merging incompatible inodes")
	}
	l := int(na.level)
	if l == x.k {
		if len(na.extent) < len(nb.extent) {
			a, b = b, a
			na, nb = nb, na
		}
		// Snapshot: reassignPath swap-removes from nb.extent as it goes.
		x.mergeBuf = append(x.mergeBuf[:0], nb.extent...)
		newPath := x.mergePath
		for _, w := range x.mergeBuf {
			x.path(w, newPath)
			newPath[x.k] = a
			x.reassignPath(w, newPath)
		}
		x.freeANode(b)
	} else {
		x.ibuf = append(x.ibuf[:0], nb.child...)
		for _, c := range x.ibuf {
			x.nodes[c].parent = a
			x.addChild(a, c)
		}
		nb.child = nb.child[:0]
		// Snapshot the counter pairs: addBoundaryCount mutates the lists
		// being walked (delete-on-zero).
		x.ibuf = append(x.ibuf[:0], nb.predB.IDs...)
		x.cbuf = append(x.cbuf[:0], nb.predB.N...)
		for idx, src := range x.ibuf {
			cnt := x.cbuf[idx]
			x.addBoundaryCount(src, b, -cnt)
			x.addBoundaryCount(src, a, cnt)
		}
		x.ibuf = append(x.ibuf[:0], nb.succB.IDs...)
		x.cbuf = append(x.cbuf[:0], nb.succB.N...)
		for idx, dst := range x.ibuf {
			cnt := x.cbuf[idx]
			x.addBoundaryCount(b, dst, -cnt)
			x.addBoundaryCount(a, dst, cnt)
		}
		x.freeANode(b)
	}
	x.Stats.Merges++
	return a
}
