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
// The maintenance entry points — ApplyBatch, InsertEdge, DeleteEdge, the
// node operations, AddSubgraph and DeleteSubgraph — are internal/maint's
// op driver over this package's round kernel (Ingest, the split phase,
// the frontier merge pass); InsertEdge and DeleteEdge are the round over
// one op, which is Figure 3. They keep the index a valid, minimal 1-index
// (Lemma 3); on acyclic graphs the result is the unique minimum 1-index
// (Theorem 1). SplitOnly is the same driver over a kernel that skips
// merges — the propagate baseline of Kaushik et al. — which keeps the
// index valid but not minimal.
package oneindex

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
	// mark by bumping the epoch — no clearing pass.
	markStamp  []uint64 // epoch<<2 | split mark bits
	splitEpoch uint64

	// round is the op driver's affected set of an in-flight maintenance
	// round, kept between rounds for its storage.
	round maint.Round

	// split is the reusable split-phase context (created on first use); its
	// queues, membership vector and snapshot buffers keep their storage
	// across maintenance calls so the hot path is allocation-free at steady
	// state.
	split *splitCtx

	// frontier holds the round's affected dnodes' inodes after the split
	// phase, where the merge pass searches for partners.
	frontier []INodeID

	// Merge-phase scratch: the signature table grouping inodes by
	// (label, index-parent set), the per-group member lists, the cascade
	// queue, and assembly buffers. All reused across maintenance calls.
	mergeTab    sigtab.Table
	mergeSig    []int32
	mergeGroups [][]INodeID
	mergeQueue  []INodeID
	succSnap    []INodeID
	mergeBuf    []graph.NodeID

	pub snap.Publisher // publishes snapshots; maintenance Marks what it changes
}

// SetSnapshotCodec selects the extent representation later Freeze and
// PatchSnapshot calls encode extents into; the live maintenance structures
// are unaffected. The next snapshot after a switch is a full freeze.
func (x *Index) SetSnapshotCodec(c extent.Codec) { x.pub.SetCodec(c) }

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
	x, err := FromPartition(g, BuildPartition(g))
	if err != nil {
		panic("oneindex: Build: " + err.Error()) // CoarsestStable is self-stable (Lemma 1)
	}
	return x
}

// BuildPartition is Build's partition step: the minimum 1-index partition
// of g with its blocks numbered as Build numbers the inodes.
func BuildPartition(g *graph.Graph) *partition.Partition {
	p := partition.CoarsestStable(g, partition.ByLabel(g))
	numberBreadthFirst(g, p)
	return p
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

// FromPartition constructs an Index over g with the given dnode partition,
// which is trusted to be label-pure and to cover every live dnode. One
// that is not self-stable is not a 1-index: it gets an error, not an index.
//
// Inodes are numbered in block-id order, skipping empty blocks: a snapshot
// saves its inodes as blocks in slot order, so the loaded index keeps
// every extent's INodeID, and the deterministic journal replay then
// evolves it exactly as it evolved the original, keeping a follower
// bit-identical to its leader at every seq. Inode records, extents and
// both iedge directions are cut from exactly sized slabs with full slice
// expressions, so maintenance growing one list reallocates it rather than
// writing into the next.
func FromPartition(g *graph.Graph, p *partition.Partition) (*Index, error) {
	idx := &Index{g: g}
	(*kernel)(idx).Grow()
	blockTo := make([]INodeID, p.NumBlocks()) // each block's size, then its inode
	g.EachNode(func(v graph.NodeID) {
		if b := p.Block(v); b != partition.NoBlock {
			blockTo[b]++
		}
	})
	ins, slab := make([]inode, 0, len(blockTo)), make([]graph.NodeID, g.NumNodes())
	for b, n := range blockTo {
		if blockTo[b] = NoINode; n > 0 {
			blockTo[b] = INodeID(len(ins))
			ins = append(ins, inode{extent: slab[:0:n]})
			slab = slab[n:]
		}
	}
	idx.inodes = make([]*inode, len(ins))
	for i := range ins {
		idx.inodes[i] = &ins[i]
		idx.pub.Mark(INodeID(i))
	}
	idx.numLive = len(ins)
	g.EachNode(func(v graph.NodeID) {
		if b := p.Block(v); b != partition.NoBlock {
			idx.inodes[blockTo[b]].label = g.Label(v)
			idx.attachDNode(v, blockTo[b])
		}
	})
	if J := idx.countIEdges(); J != NoINode {
		return nil, fmt.Errorf("oneindex: partition is not self-stable: the dnodes of inode %d have unequal index-parent sets", J)
	}
	return idx, nil
}

// countIEdges fills a fresh index's iedge counts and returns an inode J
// some iedge I→J does not reach all the dnodes of (NoINode when none: the
// partition is self-stable). Edge targets are bucketed by source inode in
// two passes in NodeID order, each bucket is grouped by target inode into
// I's successor counts, and their transposition, in I order, is every
// predecessor list, sorted. Both directions are cut from slabs.
func (x *Index) countIEdges() INodeID {
	n := len(x.inodes)
	succAt, predAt := make([]int, n+1), make([]int, n+1)
	x.g.EachEdge(func(u, _ graph.NodeID, _ graph.EdgeKind) { succAt[x.inodeOf[u]+1]++ })
	for I := 0; I < n; I++ {
		succAt[I+1] += succAt[I]
	}
	targets := make([]graph.NodeID, x.g.NumEdges())
	x.g.EachEdge(func(u, w graph.NodeID, _ graph.EdgeKind) {
		targets[succAt[x.inodeOf[u]]] = w
		succAt[x.inodeOf[u]]++
	})
	// succAt[I] ends I's bucket; from here on it starts I's counts.
	cnt, reached, touched := make([]int32, n), make([]int32, n), []INodeID(nil)
	seen, unstable := make([]INodeID, len(x.inodeOf)), NoINode // seen[w] == I+1: w counted for I
	ids, ns := make([]INodeID, 0, len(targets)), make([]int32, 0, len(targets))
	for I, from := 0, 0; I < n; I++ {
		for _, w := range targets[from:succAt[I]] {
			J := x.inodeOf[w]
			if cnt[J]++; cnt[J] == 1 {
				touched = append(touched, J)
			}
			if seen[w] != INodeID(I+1) {
				seen[w] = INodeID(I + 1)
				reached[J]++
			}
		}
		from, succAt[I] = succAt[I], len(ids)
		slices.Sort(touched)
		for _, J := range touched {
			if int(reached[J]) != len(x.inodes[J].extent) && unstable == NoINode {
				unstable = J
			}
			ids, ns = append(ids, J), append(ns, cnt[J])
			cnt[J], reached[J] = 0, 0
			predAt[J+1]++
		}
		touched = touched[:0]
	}
	succAt[n] = len(ids)
	for J := 0; J < n; J++ {
		predAt[J+1] += predAt[J]
	}
	pids, pns := make([]INodeID, len(ids)), make([]int32, len(ids))
	for I, in := range x.inodes {
		a, b := succAt[I], succAt[I+1]
		in.succ = ilist.Counts[INodeID]{IDs: ids[a:b:b], N: ns[a:b:b]}
		for k := a; k < b; k++ {
			J := ids[k]
			pids[predAt[J]], pns[predAt[J]] = INodeID(I), ns[k]
			predAt[J]++
		}
	}
	// predAt[J] now ends J's run, which begins where J-1's ends.
	for J, a := 0, 0; J < n; J++ {
		b := predAt[J]
		x.inodes[J].pred = ilist.Counts[INodeID]{IDs: pids[a:b:b], N: pns[a:b:b]}
		a = b
	}
	return unstable
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
func (x *Index) Extent(I INodeID) []graph.NodeID { return x.appendExtent(nil, I) }

// appendExtent appends I's extent to dst ascending, sorting only one that
// maintenance left out of order (a built or loaded extent is ascending).
func (x *Index) appendExtent(dst []graph.NodeID, I INodeID) []graph.NodeID {
	dst = append(dst, x.inodes[I].extent...)
	if ext := dst[len(dst)-len(x.inodes[I].extent):]; !slices.IsSorted(ext) {
		slices.Sort(ext)
	}
	return dst
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
// a from-scratch construction or for saving. Blocks number the live inodes
// in slot order — the numbering a snapshot of the index is saved under —
// so a built index keeps Build's breadth-first layout through a save and
// load.
func (x *Index) ToPartition() *partition.Partition {
	p := partition.NewPartition(graph.NodeID(len(x.inodeOf)))
	b := int32(0)
	for _, in := range x.inodes {
		if in == nil {
			continue
		}
		for _, v := range in.extent {
			p.SetBlock(v, b)
		}
		b++
	}
	p.SetNumBlocks(int(b))
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
	x.pub.Mark(id)
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
	x.pub.Mark(id)
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
	x.pub.Mark(from) // the snapshot view carries from's successor list
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
	x.pub.Mark(src)
	x.pub.Mark(dst)
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
