package partition

import (
	"runtime"
	"slices"
	"sync"

	"structix/internal/graph"
	"structix/internal/sigtab"
)

// CoarsestStable computes the coarsest refinement of init that is stable
// with respect to itself, over the graph g. Applied to the label partition
// (ByLabel), this constructs the minimum 1-index partition (Lemma 1);
// applied to a partially split partition it is the correctness engine of
// the reconstruction baseline.
//
// A block I is stable with respect to every block iff all of I's members
// have parents in the same set of blocks, so the result is the fixpoint of
// the refinement round (see refiner) started from init. Block ids are
// numbered in order of each block's smallest member.
func CoarsestStable(g *graph.Graph, init *Partition) *Partition {
	r := newRefiner(g, init)
	defer refinerPool.Put(r)
	for r.round() {
	}
	return r.partition()
}

// KBisimLevels constructs the minimum A(0)..A(k) partitions of g
// (Definition 4): level 0 partitions nodes by label; level i refines level
// i−1 so that two nodes share a block iff they share a label and their
// parents cover the same set of level-(i−1) blocks — one refinement round
// per level, which mirrors the O(km) construction of Kaushik et al. [9].
// The returned slice has k+1 entries, each numbered like ByLabel: in order
// of each block's smallest member.
//
// Once a round splits nothing the sequence has reached a fixpoint and all
// later levels are copies; the fixpoint partition is the maximal
// bisimulation, i.e. the minimum 1-index partition.
func KBisimLevels(g *graph.Graph, k int) []*Partition {
	levels := make([]*Partition, k+1)
	levels[0] = ByLabel(g)
	if k == 0 {
		return levels
	}
	r := newRefiner(g, levels[0])
	defer refinerPool.Put(r)
	for i := 1; i <= k; i++ {
		if !r.round() {
			for j := i; j <= k; j++ {
				levels[j] = levels[i-1].Clone()
			}
			break
		}
		levels[i] = r.partition()
	}
	return levels
}

// refiner is the one refinement engine behind both construction jobs. It
// reads g once into a flat adjacency (CSR offsets + targets) and keeps the
// blocks as contiguous ranges elems[start[b]:end[b]] of one member array.
//
// A round is level-synchronous: every re-keyed block groups its members by
// the set of their parents' blocks as of the previous round, and only then
// are the splits applied. The largest group keeps the block id and the
// others take fresh ids, so a node whose id did not change has parents in
// the same blocks as before. After the first round, which keys every
// member, each block's members share one parent-block set, so a round
// touches only the successors of the nodes moved in the previous round:
// it re-keys the blocks holding one, and within such a block computes the
// signatures of those members alone. The untouched members keep the
// block's shared set and stay one group; a touched member's set holds its
// moved parent's fresh id, which the shared set cannot, so it never joins
// them. From parallelWork members on, a round keys its blocks on workers;
// everything that numbers blocks runs on one goroutine, so the ids never
// depend on the worker count.
type refiner struct {
	predOff, pred []int32 // parents of v: pred[predOff[v]:predOff[v+1]]
	succOff, succ []int32 // the transpose of pred

	blockOf    []int32 // node → block, NoBlock outside the partition
	elems      []int32 // members, grouped by block
	start, end []int32 // block → its range of elems
	nb         int32   // blocks in use

	first bool    // the next round is the first: it keys every member
	moved []int32 // nodes that changed block in the last round
	hit   []bool  // per node: a member of a dirty block with a moved parent
	dirty []int32 // blocks re-keyed this round
	mark  []bool  // per block: listed in dirty
	grp   []int32 // per elems index: the member's group this round
	split []int32 // (block, groups) pairs to apply this round

	groupers []grouper // one per worker
	count    []int32   // splitBlock: per-group sizes, then range offsets
	buf      []int32   // block-id remaps; splitBlock's copy of a range
}

// grouper is one worker's share of a round.
type grouper struct {
	dirty []int32      // the blocks this worker keys
	tab   sigtab.Table // one block's signatures → its groups
	sig   []int32      // the signature being built
	split []int32      // (block, groups) pairs, in dirty order
}

// parallelWork is the dirty-block member count from which a round keys its
// blocks on runtime.GOMAXPROCS(0) goroutines; below it one goroutine is
// cheaper than starting the others.
const parallelWork = 1 << 14

// forceWorkers, when positive, is the worker count of every round,
// whatever its work: the tests' seam into the parallel grouping.
var forceWorkers int

// rest is the key of a block's untouched members: no parent-block set
// contains NoBlock, so no signature equals it.
var rest = []int32{NoBlock}

var refinerPool = sync.Pool{New: func() any { return new(refiner) }}

// resize returns s with length n, reusing its capacity.
func resize(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// newRefiner takes a pooled refiner and loads g's adjacency and init's
// blocks into it. Callers return it to refinerPool when done.
func newRefiner(g *graph.Graph, init *Partition) *refiner {
	r := refinerPool.Get().(*refiner)
	n := int(g.MaxNodeID())

	// Parents, then children by transposing them: succ lists come out in
	// increasing node order.
	r.predOff = resize(r.predOff, n+1)
	r.pred = resize(r.pred, g.NumEdges())[:0]
	for v := 0; v < n; v++ {
		r.predOff[v] = int32(len(r.pred))
		if g.Alive(graph.NodeID(v)) {
			g.EachPred(graph.NodeID(v), func(u graph.NodeID, _ graph.EdgeKind) {
				r.pred = append(r.pred, int32(u))
			})
		}
	}
	r.predOff[n] = int32(len(r.pred))
	r.succOff = resize(r.succOff, n+1)
	clear(r.succOff)
	for _, u := range r.pred {
		r.succOff[u+1]++
	}
	for v := 0; v < n; v++ {
		r.succOff[v+1] += r.succOff[v]
	}
	r.succ = resize(r.succ, len(r.pred))
	for v := 0; v < n; v++ {
		for _, u := range r.pred[r.predOff[v]:r.predOff[v+1]] {
			r.succ[r.succOff[u]] = int32(v)
			r.succOff[u]++
		}
	}
	copy(r.succOff[1:], r.succOff[:n])
	r.succOff[0] = 0

	// Every member of init starts in block 0, which splitBlock then splits
	// by init's blocks, renumbered densely.
	remap := resize(r.buf, init.NumBlocks())
	for i := range remap {
		remap[i] = NoBlock
	}
	r.blockOf = resize(r.blockOf, n)
	r.elems, r.grp = resize(r.elems, n)[:0], resize(r.grp, n)[:0]
	groups := int32(0)
	for v := range r.blockOf {
		b := init.blockAt(v)
		if b != NoBlock {
			if remap[b] == NoBlock {
				remap[b] = groups
				groups++
			}
			r.elems = append(r.elems, int32(v))
			r.grp = append(r.grp, remap[b])
			b = 0
		}
		r.blockOf[v] = b
	}
	r.buf = remap
	r.start, r.end = resize(r.start, n), resize(r.end, n)
	r.nb, r.moved = 0, r.moved[:0]
	if groups > 0 {
		r.nb = 1
		r.start[0], r.end[0] = 0, int32(len(r.elems))
		r.splitBlock(0, int(groups))
	}
	// A round leaves mark and hit all false; both start so.
	if cap(r.mark) < n {
		r.mark, r.hit = make([]bool, n), make([]bool, n)
	}
	r.mark, r.hit = r.mark[:n], r.hit[:n]
	r.first = true
	return r
}

// round runs one refinement round and reports whether any block split.
// It lists the dirty blocks — every block of two or more members in the
// first round, afterwards those holding a child of a node the last round
// moved, each such child marked hit — keys them (group), then applies
// the splits in dirty order.
func (r *refiner) round() bool {
	r.dirty = r.dirty[:0]
	work := 0
	if r.first {
		for b := int32(0); b < r.nb; b++ {
			if r.end[b]-r.start[b] > 1 {
				r.dirty = append(r.dirty, b)
				work += int(r.end[b] - r.start[b])
			}
		}
	} else {
		for _, u := range r.moved {
			for _, w := range r.succ[r.succOff[u]:r.succOff[u+1]] {
				if b := r.blockOf[w]; b != NoBlock && r.end[b]-r.start[b] > 1 {
					r.hit[w] = true
					if !r.mark[b] {
						r.mark[b] = true
						r.dirty = append(r.dirty, b)
						work += int(r.end[b] - r.start[b])
					}
				}
			}
		}
		for _, b := range r.dirty {
			r.mark[b] = false
		}
	}
	r.group(work)
	r.first = false

	r.moved = r.moved[:0]
	for i := 0; i < len(r.split); i += 2 {
		r.splitBlock(r.split[i], int(r.split[i+1]))
	}
	return len(r.moved) > 0
}

// group keys every dirty block into grp and collects the splits in dirty
// order. The dirty list is cut into one contiguous run per worker,
// balanced by member count; each worker writes only its own blocks' grp
// ranges and members' hit flags, and reads blockOf, which no one writes
// until the splits are applied.
func (r *refiner) group(work int) {
	k := runtime.GOMAXPROCS(0)
	if forceWorkers > 0 {
		k = forceWorkers
	} else if work < parallelWork {
		k = 1
	}
	for len(r.groupers) < k {
		r.groupers = append(r.groupers, grouper{})
	}
	var wg sync.WaitGroup
	wg.Add(k - 1)
	for w, from, done := 0, 0, 0; w < k; w++ {
		to := from
		for share := work * (w + 1) / k; to < len(r.dirty) && (done < share || w == k-1); to++ {
			done += int(r.end[r.dirty[to]] - r.start[r.dirty[to]])
		}
		gr := &r.groupers[w]
		gr.dirty, from = r.dirty[from:to], to
		if w == k-1 {
			gr.keyBlocks(r)
		} else {
			go func() {
				defer wg.Done()
				gr.keyBlocks(r)
			}()
		}
	}
	wg.Wait()
	r.split = r.split[:0]
	for w := range r.groupers[:k] {
		r.split = append(r.split, r.groupers[w].split...)
	}
}

// keyBlocks groups the members of each block in gr.dirty — all of them in
// the first round, afterwards each hit member by its signature and the
// rest as one group — and lists the blocks that split.
func (gr *grouper) keyBlocks(r *refiner) {
	gr.split = gr.split[:0]
	for _, b := range gr.dirty {
		gr.tab.Reset()
		restID := int32(-1)
		for i := r.start[b]; i < r.end[b]; i++ {
			if v := r.elems[i]; r.first || r.hit[v] {
				r.hit[v] = false
				r.grp[i], _ = gr.tab.Intern(gr.signature(r, v))
				continue
			}
			if restID < 0 {
				restID, _ = gr.tab.Intern(rest)
			}
			r.grp[i] = restID
		}
		if n := gr.tab.Len(); n > 1 {
			gr.split = append(gr.split, b, int32(n))
		}
	}
}

// signature returns the sorted, deduplicated set of v's parents' blocks.
func (gr *grouper) signature(r *refiner, v int32) []int32 {
	sig := gr.sig[:0]
	for _, u := range r.pred[r.predOff[v]:r.predOff[v+1]] {
		if b := r.blockOf[u]; b != NoBlock {
			sig = append(sig, b)
		}
	}
	if len(sig) > 1 {
		slices.Sort(sig)
		sig = slices.Compact(sig)
	}
	gr.sig = sig
	return sig
}

// splitBlock regroups block b's range by this round's groups (numbered
// 0..groups-1): the largest group stays first and keeps b, every other
// group follows as a fresh block whose members are recorded as moved.
func (r *refiner) splitBlock(b int32, groups int) {
	s, e := r.start[b], r.end[b]
	r.count = resize(r.count, groups)
	clear(r.count)
	for _, gr := range r.grp[s:e] {
		r.count[gr]++
	}
	big := int32(0)
	for gr, c := range r.count {
		if c > r.count[big] {
			big = int32(gr)
		}
	}
	// count[gr] becomes the next free index of group gr's range.
	at := s + r.count[big]
	r.count[big] = s
	for gr, c := range r.count {
		if int32(gr) != big {
			r.count[gr] = at
			at += c
		}
	}
	r.buf = append(r.buf[:0], r.elems[s:e]...)
	grp := r.grp[s:e]
	for i, v := range r.buf {
		j := r.count[grp[i]]
		r.count[grp[i]]++
		r.elems[j] = v
	}
	// count[gr] is now the end of group gr's range.
	r.end[b] = r.count[big]
	from := r.end[b]
	for gr, to := range r.count {
		if int32(gr) == big {
			continue
		}
		nb := r.nb
		r.nb++
		r.start[nb], r.end[nb] = from, to
		for _, v := range r.elems[from:to] {
			r.blockOf[v] = nb
			r.moved = append(r.moved, v)
		}
		from = to
	}
}

// partition returns the current blocks as a Partition numbered in order
// of each block's smallest member.
func (r *refiner) partition() *Partition {
	p := &Partition{blockOf: make([]int32, len(r.blockOf))}
	remap := resize(r.buf, int(r.nb))
	for i := range remap {
		remap[i] = NoBlock
	}
	next := int32(0)
	for v, b := range r.blockOf {
		if b != NoBlock {
			if remap[b] == NoBlock {
				remap[b] = next
				next++
			}
			b = remap[b]
		}
		p.blockOf[v] = b
	}
	r.buf = remap
	p.numBlocks = int(next)
	return p
}
