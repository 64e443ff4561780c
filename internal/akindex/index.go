// Package akindex implements the A(k)-index — the k-bisimulation structural
// index of Kaushik et al. — together with the paper's split/merge
// incremental maintenance (Yi et al., SIGMOD 2004, §6).
//
// Following §6, the index maintains the whole family A(0), A(1), …, A(k)
// at once, organized as a refinement tree: each A(i)-index inode links to
// the A(i+1)-index inodes it contains. Dnode extents are stored only at
// level k; the extent of a lower-level inode is the union over its
// refinement-tree descendants. Two kinds of index edges are kept:
//
//   - intra-iedges within the A(k)-index (used for query evaluation), and
//   - inter-iedges across adjacent levels: an inter-iedge I⁽ⁱ⁾→J⁽ⁱ⁺¹⁾
//     exists iff some dedge leads from the extent of I⁽ⁱ⁾ to the extent of
//     J⁽ⁱ⁺¹⁾. These carry exactly the index-parent information the
//     maintenance algorithm needs for its split and merge decisions.
//
// Both kinds carry a count of underlying dedges so they can be maintained
// exactly as extents change.
//
// The in-memory layout is flat (see DESIGN.md "Memory layout"): extents are
// dense member slices with a position vector for O(1) swap-removal,
// refinement-tree child sets are sorted id slices, iedge counters are
// sorted (id, count) slice pairs, maintenance marks are epoch-stamped
// instead of cleared, and merge grouping interns integer signatures instead
// of building string keys. Freed inodes return to a pool with their slice
// capacity intact.
//
// Every maintenance entry point is internal/maint's op driver over this
// package's round kernel (Figure 7's largest-stable-level ingest, the
// level-wise split phase, the upward merge sweep); InsertEdge and
// DeleteEdge are the round over one op, which is Figure 7. It keeps the
// family the unique minimum set of A(i)-indexes for any data graph,
// cyclic or not (Theorem 2); AddSubgraph and DeleteSubgraph run the same
// rounds for subtree updates.
package akindex

import (
	"fmt"
	"slices"

	"structix/internal/extent"
	"structix/internal/graph"
	"structix/internal/ilist"
	"structix/internal/maint"
	"structix/internal/partition"
	"structix/internal/sigtab"
	"structix/internal/snap"
)

// INodeID identifies an inode at any level of the refinement tree. IDs are
// reused after inodes die, but an id is never live for two inodes at once.
type INodeID = snap.ID

// NoINode marks "no inode": dead dnodes, and the tree parent of level-0
// inodes.
const NoINode = snap.NoID

// anode is one inode of the refinement tree. All adjacency is flat: child
// is a sorted id slice, extent a dense member slice (position vector on the
// Index), and the iedge counters sorted (id, count) slice pairs.
type anode struct {
	level  int32
	label  graph.LabelID
	parent INodeID        // refinement-tree parent; NoINode at level 0
	child  []INodeID      // refinement-tree children, sorted; empty at level k
	extent []graph.NodeID // dnode extent; empty below level k

	// Inter-iedges. predB counts dedges whose source lies in the keyed
	// level-(l−1) inode and whose sink lies in this (level-l) inode; succB
	// is the mirror on the source side, keyed by level-(l+1) inodes.
	predB ilist.Counts[INodeID] // empty at level 0
	succB ilist.Counts[INodeID] // empty at level k

	// Intra-iedges within the A(k)-index (level k only).
	intraSucc ilist.Counts[INodeID]
	intraPred ilist.Counts[INodeID]
}

// Index is an A(k)-index family A(0..k) over a data graph. It is not safe
// for concurrent use.
type Index struct {
	g       *graph.Graph
	k       int
	inodeOf []INodeID // dnode -> level-k inode
	pos     []int32   // dnode -> position within its inode's extent slice
	nodes   []*anode  // arena; nil when free
	freeIDs []INodeID
	pool    []*anode // freed anode structs, slice capacity retained
	numLive []int    // live inode count per level 0..k

	// Stats accumulates maintenance instrumentation.
	Stats Stats

	// Epoch-stamped scratch marks over dnodes: split marks (bits 1 and 2)
	// are valid only under the current splitEpoch — no clearing passes.
	markStamp  []uint64 // epoch<<2 | split mark bits
	splitEpoch uint64

	// Reusable level-indexed (k+1) scratch paths, so the hot maintenance
	// paths do not allocate at steady state. Each pair is private to one
	// non-reentrant routine: pathU/pathP to addEdgeCounts,
	// largestStableLevel and mergeFrontier, rpOld/rpNbr to reassignPath,
	// mergePath to mergeANodes.
	pathU, pathP []INodeID
	rpOld, rpNbr []INodeID
	mergePath    []INodeID

	// split is the reusable split-phase context (created on first use).
	split *akSplitCtx

	// Round bookkeeping: the op driver's affected set of an in-flight
	// maintenance round, kept between rounds for its storage, with the
	// lowest stable level seen per affected dnode in batchLevel; the merge
	// sweep buckets the refinement-tree parents of their inodes by level
	// in frontierParents.
	round           maint.Round
	batchLevel      []int32 // by dnode, valid while it is in the round
	frontierParents [][]INodeID

	// Merge-phase scratch: the cascade queue buckets (k of them, levels
	// 0..k-1), the signature table grouping inodes by merge key, per-group
	// member lists, and assembly buffers. All reused across calls.
	cascade     [][]INodeID
	mergeTab    sigtab.Table
	mergeSig    []int32
	mergeGroups [][]INodeID
	groupSnap   []INodeID
	mergeBuf    []graph.NodeID
	childBuf    []INodeID
	ibuf        []INodeID
	cbuf        []int32

	pub snap.Publisher // publishes snapshots; maintenance Marks what it changes
}

// SetSnapshotCodec selects the extent representation later Freeze and
// PatchSnapshot calls encode extents into; the live maintenance structures
// are unaffected. The next snapshot after a switch is a full freeze.
func (x *Index) SetSnapshotCodec(c extent.Codec) { x.pub.SetCodec(c) }

// SnapshotCodec returns the codec snapshots currently freeze into.
func (x *Index) SnapshotCodec() extent.Codec { return x.pub.Codec() }

// Stats counts maintenance work across all levels.
type Stats struct {
	Splits            int
	Merges            int
	UpdatesNoChange   int
	UpdatesMaintained int
	Batches           int // maintenance rounds (ApplyBatch calls and one-op rounds)
}

// Build constructs the minimum A(0..k) family for g from scratch using the
// level-by-level construction of Kaushik et al. (§2: O(km)).
func Build(g *graph.Graph, k int) *Index {
	if k < 1 {
		panic("akindex: k must be ≥ 1")
	}
	return FromLevels(g, partition.KBisimLevels(g, k))
}

// FromLevels constructs an Index over g from the given level partitions
// (levels[i] is the A(i) partition; len(levels) = k+1). The partitions are
// trusted to form a valid family: level 0 the label partition, each level a
// refinement of the previous and stable with respect to it. Build and the
// persistence loader satisfy this by construction; Validate checks it.
func FromLevels(g *graph.Graph, levels []*partition.Partition) *Index {
	k := len(levels) - 1
	if k < 1 {
		panic("akindex: need at least levels 0 and 1")
	}
	x := &Index{
		g:         g,
		k:         k,
		numLive:   make([]int, k+1),
		pathU:     make([]INodeID, k+1),
		pathP:     make([]INodeID, k+1),
		rpOld:     make([]INodeID, k+1),
		rpNbr:     make([]INodeID, k+1),
		mergePath: make([]INodeID, k+1),

		cascade:         make([][]INodeID, k),
		frontierParents: make([][]INodeID, k),
	}
	(*kernel)(x).Grow()
	nodes := g.Nodes()
	x.mirror(levels, nodes, nodes)
	g.EachEdge(func(u, w graph.NodeID, _ graph.EdgeKind) {
		x.addEdgeCounts(u, w, 1)
	})
	return x
}

// mirror files the dnodes ids under one fresh anode per block per level
// of levels, linked into the refinement tree, where local[i] is ids[i]'s
// node in the levels' graph. It returns the level-0 anodes it created.
func (x *Index) mirror(levels []*partition.Partition, ids, local []graph.NodeID) []INodeID {
	blockTo := make([]map[int32]INodeID, x.k+1)
	for l := range blockTo {
		blockTo[l] = make(map[int32]INodeID)
	}
	var fresh0 []INodeID
	for i, v := range ids {
		var parent INodeID = NoINode
		for l := 0; l <= x.k; l++ {
			b := levels[l].Block(local[i])
			id, ok := blockTo[l][b]
			if !ok {
				id = x.newANode(int32(l), x.g.Label(v), parent)
				blockTo[l][b] = id
				if l == 0 {
					fresh0 = append(fresh0, id)
				}
			}
			parent = id
		}
		x.extentAdd(parent, v) // parent is v's level-k inode
		x.inodeOf[v] = parent
	}
	return fresh0
}

// Graph returns the underlying data graph.
func (x *Index) Graph() *graph.Graph { return x.g }

// K returns the locality parameter k.
func (x *Index) K() int { return x.k }

// SizeAt returns the number of inodes in the A(l)-index.
func (x *Index) SizeAt(l int) int { return x.numLive[l] }

// Size returns the number of inodes in the A(k)-index (the level queries
// run against).
func (x *Index) Size() int { return x.numLive[x.k] }

// INodeOf returns the level-k inode containing dnode v.
func (x *Index) INodeOf(v graph.NodeID) INodeID { return x.inodeOf[v] }

// LevelINodeOf returns the level-l inode containing dnode v, by walking the
// refinement tree up from level k.
func (x *Index) LevelINodeOf(v graph.NodeID, l int) INodeID {
	id := x.inodeOf[v]
	for cur := x.k; cur > l; cur-- {
		id = x.nodes[id].parent
	}
	return id
}

// path fills dst[0..k] with v's inode at each level.
func (x *Index) path(v graph.NodeID, dst []INodeID) {
	id := x.inodeOf[v]
	for l := x.k; l >= 0; l-- {
		dst[l] = id
		id = x.nodes[id].parent
	}
}

// Label returns the shared label of the dnodes under inode I.
func (x *Index) Label(I INodeID) graph.LabelID { return x.nodes[I].label }

// Level returns the level of inode I.
func (x *Index) Level(I INodeID) int { return int(x.nodes[I].level) }

// Parent returns I's refinement-tree parent (NoINode at level 0).
func (x *Index) Parent(I INodeID) INodeID { return x.nodes[I].parent }

// Children returns I's refinement-tree children, sorted. The slice is
// freshly allocated; the caller owns it.
func (x *Index) Children(I INodeID) []INodeID {
	return append([]INodeID(nil), x.nodes[I].child...)
}

// Extent returns the dnode extent of I (descendant extents for levels <k),
// sorted. The slice is freshly allocated on every call — the caller owns
// it and may retain or mutate it freely; it never aliases index state
// (contrast with Snapshot.Extent, which shares one slice among all
// readers).
func (x *Index) Extent(I INodeID) []graph.NodeID {
	var out []graph.NodeID
	x.eachExtentDnode(I, func(v graph.NodeID) { out = append(out, v) })
	slices.Sort(out)
	return out
}

// ExtentSize returns |extent(I)| including refinement-tree descendants.
func (x *Index) ExtentSize(I INodeID) int {
	n := x.nodes[I]
	if int(n.level) == x.k {
		return len(n.extent)
	}
	total := 0
	for _, c := range n.child {
		total += x.ExtentSize(c)
	}
	return total
}

func (x *Index) eachExtentDnode(I INodeID, fn func(v graph.NodeID)) {
	n := x.nodes[I]
	if int(n.level) == x.k {
		for _, v := range n.extent {
			fn(v)
		}
		return
	}
	for _, c := range n.child {
		x.eachExtentDnode(c, fn)
	}
}

// EachINodeAt calls fn for every live inode at level l, in increasing id
// order.
func (x *Index) EachINodeAt(l int, fn func(I INodeID)) {
	for i, n := range x.nodes {
		if n != nil && int(n.level) == l {
			fn(INodeID(i))
		}
	}
}

// IntraSucc returns the A(k) intra-iedge successors of a level-k inode,
// sorted. Freshly allocated; the caller owns it.
func (x *Index) IntraSucc(I INodeID) []INodeID {
	return append([]INodeID(nil), x.nodes[I].intraSucc.IDs...)
}

// ToPartition exports the A(l)-index's dnode partition.
func (x *Index) ToPartition(l int) *partition.Partition {
	p := partition.NewPartition(graph.NodeID(len(x.inodeOf)))
	remap := make(map[INodeID]int32)
	next := int32(0)
	for v, id := range x.inodeOf {
		if id == NoINode {
			continue
		}
		lid := x.LevelINodeOf(graph.NodeID(v), l)
		b, ok := remap[lid]
		if !ok {
			b = next
			next++
			remap[lid] = b
		}
		p.SetBlock(graph.NodeID(v), b)
	}
	p.SetNumBlocks(int(next))
	return p
}

// ---- structure manipulation ----

func (x *Index) newANode(level int32, label graph.LabelID, parent INodeID) INodeID {
	var n *anode
	if ln := len(x.pool); ln > 0 {
		n = x.pool[ln-1]
		x.pool = x.pool[:ln-1]
		n.level, n.label, n.parent = level, label, parent
	} else {
		n = &anode{level: level, label: label, parent: parent}
	}
	var id INodeID
	if ln := len(x.freeIDs); ln > 0 {
		id = x.freeIDs[ln-1]
		x.freeIDs = x.freeIDs[:ln-1]
		x.nodes[id] = n
	} else {
		id = INodeID(len(x.nodes))
		x.nodes = append(x.nodes, n)
	}
	if parent != NoINode {
		x.addChild(parent, id)
	}
	x.numLive[level]++
	x.pub.Mark(id)
	return id
}

// freeANode unlinks an emptied inode from its parent and releases its id,
// returning the struct (with its slice capacity) to the pool.
func (x *Index) freeANode(id INodeID) {
	n := x.nodes[id]
	if len(n.extent) != 0 || len(n.child) != 0 {
		panic("akindex: freeing non-empty inode")
	}
	if n.predB.Len() != 0 || n.succB.Len() != 0 || n.intraSucc.Len() != 0 || n.intraPred.Len() != 0 {
		panic("akindex: freeing inode with live iedges")
	}
	if n.parent != NoINode {
		x.removeChild(n.parent, id)
	}
	x.nodes[id] = nil
	x.freeIDs = append(x.freeIDs, id)
	x.pool = append(x.pool, n)
	x.numLive[n.level]--
	x.pub.Mark(id)
}

// addChild inserts c into p's sorted child slice.
func (x *Index) addChild(p, c INodeID) {
	s := x.nodes[p].child
	i, _ := slices.BinarySearch(s, c)
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = c
	x.nodes[p].child = s
}

// removeChild deletes c from p's sorted child slice.
func (x *Index) removeChild(p, c INodeID) {
	s := x.nodes[p].child
	i, ok := slices.BinarySearch(s, c)
	if !ok {
		panic("akindex: removing absent child")
	}
	x.nodes[p].child = append(s[:i], s[i+1:]...)
}

// hasChild reports whether c is in p's child slice.
func (x *Index) hasChild(p, c INodeID) bool {
	_, ok := slices.BinarySearch(x.nodes[p].child, c)
	return ok
}

// extentAdd appends dnode v to level-k inode id's extent (position vector
// updated); the caller maintains inodeOf.
func (x *Index) extentAdd(id INodeID, v graph.NodeID) {
	n := x.nodes[id]
	x.pos[v] = int32(len(n.extent))
	n.extent = append(n.extent, v)
}

// extentRemove swap-removes dnode v from level-k inode id's extent.
func (x *Index) extentRemove(id INodeID, v graph.NodeID) {
	n := x.nodes[id]
	m := n.extent
	i := x.pos[v]
	last := m[len(m)-1]
	m[i] = last
	x.pos[last] = i
	n.extent = m[:len(m)-1]
}

func (x *Index) addBoundaryCount(src, dst INodeID, delta int32) {
	if x.nodes[src].succB.Add(dst, delta) < 0 {
		panic("akindex: negative inter-iedge count")
	}
	x.nodes[dst].predB.Add(src, delta)
}

func (x *Index) addIntraCount(src, dst INodeID, delta int32) {
	x.pub.Mark(src) // the snapshot view carries src's intra-successor list
	if x.nodes[src].intraSucc.Add(dst, delta) < 0 {
		panic("akindex: negative intra-iedge count")
	}
	x.nodes[dst].intraPred.Add(src, delta)
}

// addEdgeCounts registers the dedge (u, w) in every boundary count and the
// intra-k counts, with the given sign.
func (x *Index) addEdgeCounts(u, w graph.NodeID, delta int32) {
	pu, pw := x.pathU, x.pathP
	x.path(u, pu)
	x.path(w, pw)
	for b := 0; b < x.k; b++ {
		x.addBoundaryCount(pu[b], pw[b+1], delta)
	}
	x.addIntraCount(pu[x.k], pw[x.k], delta)
}

// reassignPath moves dnode w from its current inode path to newPath
// (level-indexed, 0..k), updating extents, the dnode→inode map, and every
// affected inter-/intra-iedge count by scanning w's incident dedges.
// Refinement-tree links of the inodes themselves are the caller's business.
func (x *Index) reassignPath(w graph.NodeID, newPath []INodeID) {
	old := x.rpOld
	x.path(w, old)
	changedLo := -1
	for l := 0; l <= x.k; l++ {
		if old[l] != newPath[l] {
			changedLo = l
			break
		}
	}
	if changedLo < 0 {
		return
	}
	scratch := x.rpNbr
	x.g.EachPred(w, func(p graph.NodeID, _ graph.EdgeKind) {
		x.path(p, scratch)
		for b := 0; b < x.k; b++ {
			if old[b+1] != newPath[b+1] {
				x.addBoundaryCount(scratch[b], old[b+1], -1)
				x.addBoundaryCount(scratch[b], newPath[b+1], 1)
			}
		}
		if old[x.k] != newPath[x.k] {
			x.addIntraCount(scratch[x.k], old[x.k], -1)
			x.addIntraCount(scratch[x.k], newPath[x.k], 1)
		}
	})
	x.g.EachSucc(w, func(s graph.NodeID, _ graph.EdgeKind) {
		x.path(s, scratch)
		for b := 0; b < x.k; b++ {
			if old[b] != newPath[b] {
				x.addBoundaryCount(old[b], scratch[b+1], -1)
				x.addBoundaryCount(newPath[b], scratch[b+1], 1)
			}
		}
		if old[x.k] != newPath[x.k] {
			x.addIntraCount(old[x.k], scratch[x.k], -1)
			x.addIntraCount(newPath[x.k], scratch[x.k], 1)
		}
	})
	if old[x.k] != newPath[x.k] {
		x.extentRemove(old[x.k], w)
		x.extentAdd(newPath[x.k], w)
		x.inodeOf[w] = newPath[x.k]
		x.pub.Mark(old[x.k])
		x.pub.Mark(newPath[x.k])
	}
}

// mergeKeySig appends the integer merge-grouping signature of I — label
// followed by the sorted inter-iedge predecessor ids — to sig.
func (x *Index) mergeKeySig(sig []int32, i INodeID) []int32 {
	n := x.nodes[i]
	sig = append(sig, int32(n.label))
	for _, p := range n.predB.IDs {
		sig = append(sig, int32(p))
	}
	return sig
}

func (x *Index) String() string {
	return fmt.Sprintf("A(%d)-index{%d inodes at level k over %d dnodes}",
		x.k, x.Size(), x.g.NumNodes())
}
