package oneindex

import (
	"slices"

	"structix/internal/graph"
	"structix/internal/ilist"
)

// ---- split phase ----

// compound is a compound block: the set of inodes a former inode has been
// split into, with respect to whose union the rest of the index is already
// stable but with respect to whose individual members it may not be.
type compound struct {
	ids []INodeID
}

// hit records, for one inode K touched by Succ(I), its members falling in
// Succ(I)∩Succ(𝓘−{I}) and Succ(I)−Succ(𝓘−{I}).
type hit struct {
	k11, k12 []graph.NodeID
}

// splitCtx is the reusable state of one split phase. It lives on the Index
// and is re-used across maintenance calls so that the steady-state split
// path performs no per-call allocations: the queue, the compound-membership
// vector, successor snapshots and three-way-split records all keep their
// backing storage between runs, and the per-step hit grouping is
// epoch-stamped rather than cleared.
type splitCtx struct {
	x        *Index
	queue    []*compound
	memberOf []*compound // by INodeID; nil when not in a queued compound
	free     []*compound // compound pool

	s1, s2   []graph.NodeID // successor-set snapshots of step
	hitEpoch uint32
	hitStamp []uint32 // by INodeID: hitOf valid this threeWaySplit call
	hitOf    []int32
	hitOrder []INodeID
	hits     []hit
	newIDs   []INodeID
}

// splitter returns the index's reusable split context.
func (x *Index) splitter() *splitCtx {
	if x.split == nil {
		x.split = &splitCtx{x: x}
	}
	return x.split
}

// member returns the queued compound inode id belongs to, if any.
func (s *splitCtx) member(id INodeID) *compound {
	if int(id) >= len(s.memberOf) {
		return nil
	}
	return s.memberOf[id]
}

func (s *splitCtx) setMember(id INodeID, c *compound) {
	for int(id) >= len(s.memberOf) {
		s.memberOf = append(s.memberOf, nil)
	}
	s.memberOf[id] = c
}

func (s *splitCtx) newCompound(ids ...INodeID) *compound {
	if n := len(s.free); n > 0 {
		c := s.free[n-1]
		s.free = s.free[:n-1]
		c.ids = append(c.ids[:0], ids...)
		return c
	}
	return &compound{ids: append([]INodeID(nil), ids...)}
}

// seed singles v out of its inode (when it has company) and queues the
// resulting compound block. When the inode is already a member of a queued
// compound — several affected dnodes of one round can share an inode — the
// fresh singleton joins that compound instead: its union is unchanged, so
// the compound invariant (the rest of the index is stable with respect to
// the union) is preserved.
func (s *splitCtx) seed(v graph.NodeID) {
	x := s.x
	iv := x.inodeOf[v]
	if len(x.inodes[iv].extent) <= 1 {
		return
	}
	nv := x.newINode(x.inodes[iv].label)
	x.moveDNode(v, nv)
	x.Stats.Splits++
	if c := s.member(iv); c != nil {
		c.ids = append(c.ids, nv)
		s.setMember(nv, c)
	} else {
		s.push(s.newCompound(nv, iv))
	}
}

func (s *splitCtx) push(c *compound) {
	s.queue = append(s.queue, c)
	for _, id := range c.ids {
		s.setMember(id, c)
	}
}

func (s *splitCtx) run() {
	for len(s.queue) > 0 {
		c := s.queue[len(s.queue)-1]
		s.queue = s.queue[:len(s.queue)-1]
		for _, id := range c.ids {
			s.memberOf[id] = nil
		}
		s.step(c)
		s.free = append(s.free, c)
	}
}

// step processes one compound block 𝓘: pick a member I with at most half
// the total extent, re-queue 𝓘−{I} if it still has ≥2 members, and
// three-way split every inode by Succ(I) and Succ(𝓘−{I}).
func (s *splitCtx) step(c *compound) {
	x := s.x
	// Pick the member with the smallest extent (ties by id, for
	// determinism); the smallest is always ≤ half the total.
	slices.SortFunc(c.ids, func(a, b INodeID) int {
		if d := len(x.inodes[a].extent) - len(x.inodes[b].extent); d != 0 {
			return d
		}
		return int(a - b)
	})
	if x.PickLargestSplitter {
		// Ablation mode: violate the smaller-half rule on purpose.
		last := len(c.ids) - 1
		c.ids[0], c.ids[last] = c.ids[last], c.ids[0]
	}
	rest := c.ids[1:]
	if len(c.ids) >= 3 {
		s.push(s.newCompound(rest...))
	}
	// Snapshot both successor sets before any split: extents may change
	// under our feet otherwise (including I's own, if the index has a
	// self-cycle — the "messy detail" §5.1 alludes to; handled here by
	// snapshotting). The snapshots live in reusable scratch buffers, and a
	// fresh mark epoch invalidates the previous step's marks wholesale.
	x.splitEpoch++
	s.s1 = x.markSucc(s.s1[:0], c.ids[:1], 1)
	s.s2 = x.markSucc(s.s2[:0], rest, 2)
	s.threeWaySplit(s.s1)
}

// markSucc marks Succ(ids) with the given bit under the current split epoch
// and appends the dnodes newly marked with that bit to out. A stamp from an
// earlier epoch reads as "no bits set", so no clearing pass ever runs.
func (x *Index) markSucc(out []graph.NodeID, ids []INodeID, bit uint64) []graph.NodeID {
	base := x.splitEpoch << 2
	for _, id := range ids {
		for _, u := range x.inodes[id].extent {
			x.g.EachSucc(u, func(w graph.NodeID, _ graph.EdgeKind) {
				st := x.markStamp[w]
				if st < base {
					st = base // stale epoch: all bits read as zero
				}
				if st&bit == 0 {
					x.markStamp[w] = st | bit
					out = append(out, w)
				}
			})
		}
	}
	return out
}

// threeWaySplit splits every inode K containing a dnode of s1 (= Succ(I))
// into K11 = K∩Succ(I)∩Succ(𝓘−{I}), K12 = K∩Succ(I)−Succ(𝓘−{I}) and
// K2 = K−Succ(I), dropping empty parts. Inodes untouched by Succ(I) need
// no splitting: by the compound-block invariant they are stable with
// respect to the union Succ(I) ∪ Succ(𝓘−{I}), so missing s1 entirely
// means being contained in or disjoint from Succ(𝓘−{I}).
func (s *splitCtx) threeWaySplit(s1 []graph.NodeID) {
	x := s.x
	s.hitEpoch++
	if s.hitEpoch == 0 {
		clear(s.hitStamp[:cap(s.hitStamp)])
		s.hitEpoch = 1
	}
	s.hitStamp = ilist.Resize(s.hitStamp, len(x.inodes))
	s.hitOf = ilist.Resize(s.hitOf, len(x.inodes))
	s.hitOrder = s.hitOrder[:0]
	nhits := 0
	for _, w := range s1 {
		k := x.inodeOf[w]
		if s.hitStamp[k] != s.hitEpoch {
			s.hitStamp[k] = s.hitEpoch
			if nhits == len(s.hits) {
				s.hits = append(s.hits, hit{})
			}
			s.hits[nhits].k11 = s.hits[nhits].k11[:0]
			s.hits[nhits].k12 = s.hits[nhits].k12[:0]
			s.hitOf[k] = int32(nhits)
			nhits++
			s.hitOrder = append(s.hitOrder, k)
		}
		h := &s.hits[s.hitOf[k]]
		// w ∈ s1, so its stamp carries the current epoch: bit 2 is live.
		if x.markStamp[w]&2 != 0 {
			h.k11 = append(h.k11, w)
		} else {
			h.k12 = append(h.k12, w)
		}
	}
	order := s.hitOrder
	slices.Sort(order)
	for _, k := range order {
		h := &s.hits[s.hitOf[k]]
		n2 := len(x.inodes[k].extent) - len(h.k11) - len(h.k12)
		parts := 0
		if len(h.k11) > 0 {
			parts++
		}
		if len(h.k12) > 0 {
			parts++
		}
		if n2 > 0 {
			parts++
		}
		if parts < 2 {
			continue // stable: all of K fell in one class
		}
		label := x.inodes[k].label
		s.newIDs = s.newIDs[:0]
		move := func(members []graph.NodeID) {
			id := x.newINode(label)
			s.newIDs = append(s.newIDs, id)
			for _, w := range members {
				x.moveDNode(w, id)
			}
		}
		if n2 > 0 {
			// K keeps the K2 part (whose members we never materialized).
			if len(h.k11) > 0 {
				move(h.k11)
			}
			if len(h.k12) > 0 {
				move(h.k12)
			}
		} else {
			// K ⊆ Succ(I): keep K's id for k11 or k12, move the other.
			if len(h.k11) > 0 && len(h.k12) > 0 {
				if len(h.k11) >= len(h.k12) {
					move(h.k12)
				} else {
					move(h.k11)
				}
			}
		}
		x.Stats.Splits += len(s.newIDs)
		// Compound bookkeeping: the parts of K join K's queued compound if
		// any, otherwise they form a new compound.
		if c := s.member(k); c != nil {
			c.ids = append(c.ids, s.newIDs...)
			for _, id := range s.newIDs {
				s.setMember(id, c)
			}
		} else {
			nc := s.newCompound(k)
			nc.ids = append(nc.ids, s.newIDs...)
			s.push(nc)
		}
	}
}

// ---- merge phase ----

// cascadeMerges propagates merges downstream from the queued inodes in
// x.mergeQueue (consumed by the call): merging two inodes changes the
// index-parent sets of exactly their index successors, so those are grouped
// by (label, index-parent set) and merged, and each resulting merge is
// queued in turn. Grouping interns the integer signature
// [label, sorted parent ids...] in a reusable open-addressed table; group
// ids come out in first appearance order over the (sorted) successor list,
// which keeps the cascade deterministic without materializing any keys.
func (x *Index) cascadeMerges() {
	for len(x.mergeQueue) > 0 {
		i := x.mergeQueue[len(x.mergeQueue)-1]
		x.mergeQueue = x.mergeQueue[:len(x.mergeQueue)-1]
		if x.inodes[i] == nil {
			continue // absorbed by a later merge while queued
		}
		// Snapshot the successors: merging mutates succ lists mid-walk.
		x.succSnap = append(x.succSnap[:0], x.inodes[i].succ.IDs...)
		x.Stats.MergeProbes += len(x.succSnap)
		x.mergeTab.Reset()
		ngroups := 0
		for _, j := range x.succSnap {
			x.mergeSig = x.mergeKeySig(x.mergeSig[:0], j)
			gid, fresh := x.mergeTab.Intern(x.mergeSig)
			if fresh {
				if int(gid) == len(x.mergeGroups) {
					x.mergeGroups = append(x.mergeGroups, nil)
				}
				x.mergeGroups[gid] = x.mergeGroups[gid][:0]
				ngroups = int(gid) + 1
			}
			x.mergeGroups[gid] = append(x.mergeGroups[gid], j)
		}
		for gid := 0; gid < ngroups; gid++ {
			class := x.mergeGroups[gid]
			if len(class) < 2 {
				continue
			}
			m := class[0]
			for _, j := range class[1:] {
				m = x.merge(m, j)
			}
			x.mergeQueue = append(x.mergeQueue, m)
		}
	}
}

// findMergeCandidate returns an inode J ≠ I with the same label and the
// same index-parent set as I, or NoINode. A partner shares every parent of
// I, so it is a successor of each of them and any one parent's successor
// list holds it: the search scans the parent with the fewest successors
// (ties to the lower id), comparing each candidate with sameMergeKey. The
// smallest-id parent would do as well but is often a hub — thousands of
// successors on XMark — where the least-fan-out parent has a few. For a
// (rare) parentless I a global scan over all inodes is used.
func (x *Index) findMergeCandidate(i INodeID) INodeID {
	preds := x.inodes[i].pred.IDs
	if len(preds) == 0 {
		found := NoINode
		x.EachINode(func(c INodeID) {
			if found == NoINode && c != i {
				x.Stats.MergeProbes++
				if x.sameMergeKey(i, c) {
					found = c
				}
			}
		})
		return found
	}
	p := preds[0]
	for _, q := range preds[1:] {
		if x.inodes[q].succ.Len() < x.inodes[p].succ.Len() {
			p = q
		}
	}
	for _, c := range x.inodes[p].succ.IDs {
		if c == i {
			continue
		}
		x.Stats.MergeProbes++
		if x.sameMergeKey(i, c) {
			return c
		}
	}
	return NoINode
}

// merge unions two inodes (which must have equal labels and index-parent
// sets for the index to stay a valid 1-index) and returns the surviving id.
// The smaller extent is moved into the larger.
func (x *Index) merge(a, b INodeID) INodeID {
	if len(x.inodes[a].extent) < len(x.inodes[b].extent) {
		a, b = b, a
	}
	// Snapshot b's extent: moveDNode swap-removes from it as we walk.
	x.mergeBuf = append(x.mergeBuf[:0], x.inodes[b].extent...)
	for _, w := range x.mergeBuf {
		x.moveDNode(w, a)
	}
	x.freeINode(b)
	x.Stats.Merges++
	return a
}
