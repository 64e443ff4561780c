// Package oneindex implements the 1-index — the bisimulation-based
// structural index of Milo and Suciu — together with the paper's primary
// contribution: split/merge incremental maintenance under edge insertion,
// edge deletion, and subgraph addition/deletion (Yi et al., SIGMOD 2004,
// §5).
//
// An Index is a partition of the data graph's nodes (dnodes) into index
// nodes (inodes), each holding its extent, plus index edges (iedges)
// derived from the data edges: an iedge I→J exists iff some dedge leads
// from the extent of I to the extent of J. The index keeps a per-iedge
// count of underlying dedges so iedges can be maintained exactly as extents
// change.
//
// The in-memory layout is flat (see DESIGN.md "Memory layout"): extents
// are dense member slices with a position vector for O(1) swap-removal,
// iedge counters are sorted (id, count) slice pairs, maintenance marks are
// epoch-stamped instead of cleared, and merge grouping interns integer
// signatures instead of building string keys. Freed inodes return to a
// pool with their slice capacity intact, so steady-state maintenance churn
// allocates nothing.
//
// The maintenance entry points are InsertEdge, DeleteEdge, ApplyBatch, the
// node operations, AddSubgraph and DeleteSubgraph. Each runs one or more
// rounds of ApplyBatch's split/merge maintenance — InsertEdge and
// DeleteEdge are the round over one op, which is Figure 3 — and keeps the
// index a valid, minimal 1-index (Lemma 3); on acyclic graphs the result
// is the unique minimum 1-index (Theorem 1).
// The split-only variants (used by the propagate baseline of Kaushik et
// al.) keep the index valid but not minimal.
package oneindex

import (
	"fmt"
	"slices"

	"structix/internal/extent"
	"structix/internal/graph"
	"structix/internal/ilist"
	"structix/internal/partition"
	"structix/internal/sigtab"
	"structix/internal/snap"
)

// INodeID identifies an index node. IDs are reused after merges empty an
// inode, but an id is never live for two inodes at once.
type INodeID = snap.ID

// NoINode marks dnodes that are not in the index (dead nodes).
const NoINode = snap.NoID

// inode is one index node. The extent slice is unsorted — membership order
// is maintenance order, with Index.pos giving each dnode's position for
// swap-removal — while succ and pred are sorted by construction.
type inode struct {
	label  graph.LabelID
	extent []graph.NodeID        // members; position vector lives in Index.pos
	succ   ilist.Counts[INodeID] // iedge successor -> # underlying dedges
	pred   ilist.Counts[INodeID] // iedge predecessor -> # underlying dedges
}

// Index is a 1-index over a data graph. It is not safe for concurrent use.
type Index struct {
	g       *graph.Graph
	inodeOf []INodeID // dnode -> inode
	pos     []int32   // dnode -> position within its inode's extent slice
	inodes  []*inode  // by INodeID; nil when free
	freeIDs []INodeID
	pool    []*inode // freed inode structs, slice capacity retained
	numLive int

	// Stats accumulates instrumentation counters across maintenance calls.
	Stats Stats

	// PickLargestSplitter inverts the split phase's ≤½ smaller-half rule
	// (Figure 3: "pick I ∈ 𝓘 s.t. |I| ≤ ½Σ|J|"), always choosing the
	// *largest* compound-block member as the splitter instead. The
	// resulting index is identical — the rule matters for cost, not
	// correctness — so this knob exists purely for the ablation benchmark
	// that measures what the rule buys.
	PickLargestSplitter bool

	// Epoch-stamped scratch marks sized to the graph's NodeID bound. A
	// dnode's split marks (bits 1 and 2) are valid only when the stamp's
	// epoch part matches splitEpoch, so a new split step invalidates every
	// mark by bumping the epoch — no clearing pass. batchStamp plays the
	// same role for the maintenance round's affected-dnode dedup.
	markStamp  []uint64 // epoch<<2 | split mark bits
	splitEpoch uint64
	batchStamp []uint32
	batchEpoch uint32

	// split is the reusable split-phase context (created on first use); its
	// queues, membership vector and snapshot buffers keep their storage
	// across maintenance calls so the hot path is allocation-free at steady
	// state.
	split *splitCtx

	// batchAffected collects the dnodes singled out by an in-flight
	// maintenance round (deduplicated via batchStamp); frontier holds their
	// inodes after the split phase, where the merge pass searches for
	// partners.
	batchAffected []graph.NodeID
	frontier      []INodeID

	// Merge-phase scratch: the signature table grouping inodes by
	// (label, index-parent set), the per-group member lists, the cascade
	// queue, and assembly buffers. All reused across maintenance calls.
	mergeTab    sigtab.Table
	mergeSig    []int32
	mergeGroups [][]INodeID
	mergeQueue  []INodeID
	succSnap    []INodeID
	mergeBuf    []graph.NodeID

	// Snapshot dirty tracking (see snapshot.go): once Freeze has been
	// called, every inode whose label, extent, successor set or liveness
	// changes is recorded here so PatchSnapshot can re-copy only the
	// touched slots.
	trackDirty bool
	dirtySet   []bool // by INodeID slot
	dirtyIDs   []INodeID

	// codec is the extent representation snapshots freeze into (see
	// internal/extent). The live index itself always stays dense — the
	// zero-alloc maintenance paths never touch it — so the codec only
	// matters at Freeze/PatchSnapshot time.
	codec extent.Codec
}

// SetSnapshotCodec selects the extent representation later Freeze and
// PatchSnapshot calls encode extents into; the live maintenance structures
// are unaffected. Switching codecs disables dirty-patching once, so the
// next snapshot is a full freeze re-encoding every extent — otherwise a
// patched snapshot would share stale-codec views for untouched slots.
func (x *Index) SetSnapshotCodec(c extent.Codec) {
	if x.codec == c {
		return
	}
	x.codec = c
	x.trackDirty = false
}

// SnapshotCodec returns the codec snapshots currently freeze into.
func (x *Index) SnapshotCodec() extent.Codec { return x.codec }

// markDirty records that inode slot i changed since the last Freeze/Patch.
func (x *Index) markDirty(i INodeID) {
	if !x.trackDirty {
		return
	}
	for int(i) >= len(x.dirtySet) {
		x.dirtySet = append(x.dirtySet, false)
	}
	if !x.dirtySet[i] {
		x.dirtySet[i] = true
		x.dirtyIDs = append(x.dirtyIDs, i)
	}
}

// Stats counts maintenance work, mirroring the cost accounting of §5.1: the
// number of split operations is |Φ1|−|Φ0| and of merges |Φ1|−|Φ2|, where
// Φ1 is the intermediate index between the phases.
type Stats struct {
	Splits            int // inode splits performed
	Merges            int // inode merges performed
	LastIntermediate  int // #inodes after the most recent split phase
	MaxIntermediate   int // max #inodes observed between split and merge phase
	UpdatesNoChange   int // updates that left the index untouched
	UpdatesMaintained int // updates that ran the split/merge machinery
	Batches           int // maintenance rounds (ApplyBatch calls and one-op rounds)
	MergeProbes       int // candidate inodes the merge search compared or keyed
}

// Build constructs the minimum 1-index of g from scratch: the coarsest
// label-pure self-stable partition (partition.CoarsestStable, the
// signature-refinement engine run to its fixpoint), with its inodes
// numbered breadth-first from the root (see numberBreadthFirst).
func Build(g *graph.Graph) *Index {
	p := partition.CoarsestStable(g, partition.ByLabel(g))
	numberBreadthFirst(g, p)
	return FromPartition(g, p)
}

// numberBreadthFirst renumbers p's blocks in breadth-first first-reach
// order over the quotient graph from the root's block, so the root inode
// is 0 and a query walk — itself breadth-first over ascending successor
// lists — meets inodes in nearly ascending slot order. Blocks the root
// cannot reach follow in order of their first member. FromPartition keeps
// block ids, so every snapshot, saved file, recovery and follower of the
// built index inherits the numbering; later splits append fresh ids.
func numberBreadthFirst(g *graph.Graph, p *partition.Partition) {
	blocks := p.Blocks()
	newID := make([]int32, len(blocks))
	for i := range newID {
		newID[i] = partition.NoBlock
	}
	order := make([]int32, 0, len(blocks)) // old block ids, in new-id order
	reach := func(b int32) {
		if b != partition.NoBlock && newID[b] == partition.NoBlock {
			newID[b] = int32(len(order))
			order = append(order, b)
		}
	}
	if r := g.Root(); r != graph.InvalidNode {
		reach(p.Block(r))
	}
	seed := 0 // dnode cursor seeding the blocks the root cannot reach
	for head := 0; ; head++ {
		for head == len(order) && seed < p.Len() {
			reach(p.Block(graph.NodeID(seed)))
			seed++
		}
		if head == len(order) {
			break
		}
		for _, u := range blocks[order[head]] {
			g.EachSucc(u, func(w graph.NodeID, _ graph.EdgeKind) { reach(p.Block(w)) })
		}
	}
	for b, members := range blocks {
		for _, v := range members {
			p.SetBlock(v, newID[b])
		}
	}
}

// FromPartition constructs an Index over g with the given dnode partition.
// The partition is trusted to be label-pure; callers wanting a *valid*
// 1-index must pass a self-stable partition (Build does).
func FromPartition(g *graph.Graph, p *partition.Partition) *Index {
	idx := &Index{
		g:          g,
		inodeOf:    make([]INodeID, g.MaxNodeID()),
		pos:        make([]int32, g.MaxNodeID()),
		inodes:     make([]*inode, 0, p.NumBlocks()),
		markStamp:  make([]uint64, g.MaxNodeID()),
		batchStamp: make([]uint32, g.MaxNodeID()),
	}
	for i := range idx.inodeOf {
		idx.inodeOf[i] = NoINode
	}
	// Inodes are created in block-id order, NOT first-seen-node order: a
	// partition decoded from a persisted snapshot numbers its blocks in
	// the saver's inode order, so honoring block ids here makes the loaded
	// index an exact clone of the one that was saved — same INodeID for
	// the same extent. Recovery and replication both lean on that: the
	// deterministic journal replay then evolves a loaded index exactly as
	// it evolved the original, keeping a follower bit-identical to its
	// leader at every seq.
	blockTo := make([]INodeID, p.NumBlocks())
	for i := range blockTo {
		blockTo[i] = NoINode
	}
	labels := make([]graph.LabelID, p.NumBlocks())
	seen := make([]bool, p.NumBlocks())
	g.EachNode(func(v graph.NodeID) {
		b := p.Block(v)
		if b == partition.NoBlock || seen[b] {
			return
		}
		seen[b] = true
		labels[b] = g.Label(v)
	})
	for b := range blockTo {
		if seen[b] {
			blockTo[b] = idx.newINode(labels[b])
		}
	}
	g.EachNode(func(v graph.NodeID) {
		b := p.Block(v)
		if b == partition.NoBlock {
			return
		}
		idx.attachDNode(v, blockTo[b])
	})
	g.EachEdge(func(u, v graph.NodeID, _ graph.EdgeKind) {
		idx.addIEdgeCount(idx.inodeOf[u], idx.inodeOf[v], 1)
	})
	return idx
}

// Graph returns the underlying data graph.
func (x *Index) Graph() *graph.Graph { return x.g }

// Size returns the number of inodes.
func (x *Index) Size() int { return x.numLive }

// INodeOf returns the inode containing dnode v.
func (x *Index) INodeOf(v graph.NodeID) INodeID { return x.inodeOf[v] }

// RootINode returns the inode containing the data root, NoINode when the
// graph has no root — the live-index counterpart of Snapshot.RootINode.
func (x *Index) RootINode() INodeID {
	r := x.g.Root()
	if r == graph.InvalidNode {
		return NoINode
	}
	return x.inodeOf[r]
}

// Label returns the (shared) label of the dnodes in inode I.
func (x *Index) Label(I INodeID) graph.LabelID { return x.inodes[I].label }

// ExtentSize returns |extent(I)|.
func (x *Index) ExtentSize(I INodeID) int { return len(x.inodes[I].extent) }

// Extent returns the extent of I as a sorted slice. The slice is freshly
// allocated on every call — the caller owns it and may retain or mutate
// it freely; it never aliases index state (contrast with
// Snapshot.Extent, which shares one slice among all readers).
func (x *Index) Extent(I INodeID) []graph.NodeID {
	out := append([]graph.NodeID(nil), x.inodes[I].extent...)
	slices.Sort(out)
	return out
}

// EachINode calls fn for every live inode in increasing id order.
func (x *Index) EachINode(fn func(I INodeID)) {
	for i := range x.inodes {
		if x.inodes[i] != nil {
			fn(INodeID(i))
		}
	}
}

// INodes returns all live inode ids in increasing order.
func (x *Index) INodes() []INodeID {
	out := make([]INodeID, 0, x.numLive)
	x.EachINode(func(I INodeID) { out = append(out, I) })
	return out
}

// HasIEdge reports whether the iedge I→J exists (≥1 underlying dedge).
func (x *Index) HasIEdge(I, J INodeID) bool {
	return x.inodes[I].succ.Contains(J)
}

// ISucc returns the index successors of I, sorted. Like Extent, the
// returned slice is freshly allocated and owned by the caller.
func (x *Index) ISucc(I INodeID) []INodeID {
	return append([]INodeID(nil), x.inodes[I].succ.IDs...)
}

// IPred returns the index predecessors of I, sorted.
func (x *Index) IPred(I INodeID) []INodeID {
	return append([]INodeID(nil), x.inodes[I].pred.IDs...)
}

// NumIEdges returns the number of iedges.
func (x *Index) NumIEdges() int {
	n := 0
	x.EachINode(func(I INodeID) { n += x.inodes[I].succ.Len() })
	return n
}

// ToPartition exports the index's dnode partition, e.g. for comparison with
// a from-scratch construction.
func (x *Index) ToPartition() *partition.Partition {
	p := partition.NewPartition(graph.NodeID(len(x.inodeOf)))
	remap := make(map[INodeID]int32, x.numLive)
	next := int32(0)
	for v, id := range x.inodeOf {
		if id == NoINode {
			continue
		}
		b, ok := remap[id]
		if !ok {
			b = next
			next++
			remap[id] = b
		}
		p.SetBlock(graph.NodeID(v), b)
	}
	p.SetNumBlocks(int(next))
	return p
}

// ---- internal structure manipulation ----

func (x *Index) newINode(label graph.LabelID) INodeID {
	var in *inode
	if n := len(x.pool); n > 0 {
		in = x.pool[n-1]
		x.pool = x.pool[:n-1]
		in.label = label
	} else {
		in = &inode{label: label}
	}
	var id INodeID
	if n := len(x.freeIDs); n > 0 {
		id = x.freeIDs[n-1]
		x.freeIDs = x.freeIDs[:n-1]
		x.inodes[id] = in
	} else {
		id = INodeID(len(x.inodes))
		x.inodes = append(x.inodes, in)
	}
	x.numLive++
	x.markDirty(id)
	return id
}

func (x *Index) freeINode(id INodeID) {
	in := x.inodes[id]
	if len(in.extent) != 0 {
		panic("oneindex: freeing non-empty inode")
	}
	if in.succ.Len() != 0 || in.pred.Len() != 0 {
		panic("oneindex: freeing inode with live iedges")
	}
	x.inodes[id] = nil
	x.freeIDs = append(x.freeIDs, id)
	x.pool = append(x.pool, in)
	x.numLive--
	x.markDirty(id)
}

// attachDNode appends dnode v to inode id's extent (v must not currently
// be in any extent) and updates the membership maps.
func (x *Index) attachDNode(v graph.NodeID, id INodeID) {
	in := x.inodes[id]
	x.pos[v] = int32(len(in.extent))
	in.extent = append(in.extent, v)
	x.inodeOf[v] = id
}

// detachDNode removes dnode v from its inode's extent by swap-removal;
// x.inodeOf[v] is left stale for the caller to overwrite.
func (x *Index) detachDNode(v graph.NodeID) {
	in := x.inodes[x.inodeOf[v]]
	m := in.extent
	i := x.pos[v]
	last := m[len(m)-1]
	m[i] = last
	x.pos[last] = i
	in.extent = m[:len(m)-1]
}

// addIEdgeCount moves the dedge count of iedge from→to by delta and
// returns the new count.
func (x *Index) addIEdgeCount(from, to INodeID, delta int32) int32 {
	x.markDirty(from) // the snapshot view carries from's successor list
	n := x.inodes[from].succ.Add(to, delta)
	if n < 0 {
		panic("oneindex: negative iedge count")
	}
	x.inodes[to].pred.Add(from, delta)
	return n
}

// moveDNode reassigns dnode w from its current inode to inode dst, updating
// extents and iedge counts by scanning w's incident dedges.
func (x *Index) moveDNode(w graph.NodeID, dst INodeID) {
	src := x.inodeOf[w]
	if src == dst {
		return
	}
	x.detachDNode(w)
	x.attachDNode(w, dst)
	x.markDirty(src)
	x.markDirty(dst)
	x.g.EachPred(w, func(p graph.NodeID, _ graph.EdgeKind) {
		ip := x.inodeOf[p]
		x.addIEdgeCount(ip, src, -1)
		x.addIEdgeCount(ip, dst, 1)
	})
	x.g.EachSucc(w, func(s graph.NodeID, _ graph.EdgeKind) {
		is := x.inodeOf[s]
		x.addIEdgeCount(src, is, -1)
		x.addIEdgeCount(dst, is, 1)
	})
}

// growScratch extends the NodeID-indexed scratch arrays after the data
// graph has grown (subgraph insertion).
func (x *Index) growScratch() {
	n := int(x.g.MaxNodeID())
	for len(x.inodeOf) < n {
		x.inodeOf = append(x.inodeOf, NoINode)
	}
	for len(x.pos) < n {
		x.pos = append(x.pos, 0)
	}
	for len(x.markStamp) < n {
		x.markStamp = append(x.markStamp, 0)
	}
	for len(x.batchStamp) < n {
		x.batchStamp = append(x.batchStamp, 0)
	}
}

// sameMergeKey reports whether inodes i and j share a label and an
// index-parent set — Definition 5's mergeability criterion. The pred lists
// are sorted, so the set comparison is one parallel walk; no key object is
// ever materialized.
func (x *Index) sameMergeKey(i, j INodeID) bool {
	a, b := x.inodes[i], x.inodes[j]
	return a.label == b.label && a.pred.EqualIDs(&b.pred)
}

// mergeKeySig appends the integer merge-grouping signature of I —
// label followed by the sorted index-parent ids — to sig.
func (x *Index) mergeKeySig(sig []int32, i INodeID) []int32 {
	in := x.inodes[i]
	sig = append(sig, int32(in.label))
	for _, p := range in.pred.IDs {
		sig = append(sig, int32(p))
	}
	return sig
}

func (x *Index) String() string {
	return fmt.Sprintf("1-index{%d inodes, %d iedges over %d dnodes}",
		x.numLive, x.NumIEdges(), x.g.NumNodes())
}
