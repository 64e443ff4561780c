package query

import (
	"context"
	"math/bits"
	"sync"

	"structix/internal/extent"
	"structix/internal/graph"
	"structix/internal/snap"
)

// Automaton evaluation: one product-construction walk of (index graph ×
// compiled automaton) per link is the only code that walks an index
// snapshot. All mutable walk state lives in a Scratch of epoch-stamped
// slot records, so a caller that reuses one Scratch (and one result
// buffer) across queries evaluates without allocating at all; a nil
// Scratch borrows one from scratchPool.

const (
	flagAccept uint8 = 1 << iota // slot already appended to the accept list
	flagQueued                   // slot is on the NFA fixpoint worklist
)

// slotState is the walk's whole per-slot state, one 16-byte record, so
// the first touch of a slot writes one cache line rather than one per
// field.
type slotState struct {
	mask  uint64 // visited DFA states, or the NFA state set, of the slot
	stamp uint32 // epoch of last touch
	sym   uint8  // alphabet symbol of the slot's label, set on first touch
	flag  uint8
}

// Scratch is the reusable per-goroutine evaluation state for compiled
// queries. The zero value is ready to use; it grows to the largest slot
// space it has seen. The per-slot records are reset in O(slots touched)
// per automaton link via epoch stamps, never cleared wholesale; only the
// expanded bitmap, one bit per slot, is cleared outright, once per
// evaluation.
//
// Walks are breadth-first over two swapped frontiers: oneindex.Build
// numbers inodes in breadth-first first-reach order, so a walk pops slots
// in nearly ascending order and its record, bitmap and snapshot reads
// stream forward through memory instead of hopping. The frontiers retain
// the widest level seen, not every push. A Scratch must not be shared
// between goroutines; it may be reused freely across different Compiled
// programs and snapshots.
type Scratch struct {
	epoch uint32
	slots []slotState

	// expanded has one bit per slot, set when an index walk pops the slot
	// and reads its successor list: the evaluation's footprint across all
	// links, kept in slot order so that emitting it needs no sort.
	expanded []uint64

	cur, next []int64 // the level being expanded, and the one it discovers
	acc       []int32 // accepting slots of the running link, in discovery order
	seeds     []int32 // the previous link's accepting slots: where this one starts

	// ext is the scratch of the extent-union kernel that assembles the
	// result from the accepting inodes' extents (dense or compressed).
	// Between evaluations it retains views into the last snapshot's
	// extent storage, exactly like a warm result buffer.
	ext extent.KWay
}

// scratchPool serves the evaluations whose caller passes a nil Scratch: a
// fresh one costs O(slots) to allocate, far more than a warm walk.
var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// begin starts a new evaluation over a slot space of size n whose seed —
// what the first link starts from, and the answer of the empty path — is
// root; a negative root (a rootless snapshot) selects nothing.
func (sc *Scratch) begin(n int, root int32) {
	if len(sc.slots) < n {
		sc.grow(n)
	}
	sc.cur, sc.next = sc.cur[:0], sc.next[:0]
	sc.acc = sc.acc[:0]
	if root >= 0 {
		sc.acc = append(sc.acc, root)
	}
	clear(sc.expanded)
}

// link starts the walk of one automaton link: the slot records start over
// under a new epoch, and the slots the previous link accepted become the
// seeds it returns.
func (sc *Scratch) link() []int32 {
	sc.epoch++
	if sc.epoch == 0 { // wrapped: stale stamps could alias the new epoch
		clear(sc.slots)
		sc.epoch = 1
	}
	sc.seeds, sc.acc = sc.acc, sc.seeds[:0]
	return sc.seeds
}

func (sc *Scratch) grow(n int) {
	slots := make([]slotState, n)
	copy(slots, sc.slots)
	sc.slots = slots
	expanded := make([]uint64, (n+63)/64)
	copy(expanded, sc.expanded)
	sc.expanded = expanded
}

// touch brings a slot into the current epoch, zeroed, and returns its
// record with whether this is the link's first sight of it — the one
// moment the caller resolves the slot's label into sym. The record stays
// valid until the next touch.
func (sc *Scratch) touch(slot int32) (*slotState, bool) {
	if int(slot) >= len(sc.slots) {
		sc.grow(int(slot) + 1)
	}
	st := &sc.slots[slot]
	if st.stamp == sc.epoch {
		return st, false
	}
	*st = slotState{stamp: sc.epoch}
	return st, true
}

// advance makes the discovered level the one to expand and reports
// whether it is non-empty.
func (sc *Scratch) advance() bool {
	sc.cur, sc.next = sc.next, sc.cur[:0]
	return len(sc.cur) > 0
}

// expand records that the walk is about to read slot's successor list.
func (sc *Scratch) expand(slot int32) {
	sc.expanded[slot>>6] |= 1 << (uint(slot) & 63)
}

// footprint returns the expanded slots in ascending order, freshly
// allocated: a word sweep of the bitmap, O(slots/64 + footprint).
func (sc *Scratch) footprint() []int32 {
	n := 0
	for _, w := range sc.expanded {
		n += bits.OnesCount64(w)
	}
	out := make([]int32, 0, n)
	for i, w := range sc.expanded {
		for ; w != 0; w &= w - 1 {
			out = append(out, int32(i<<6|bits.TrailingZeros64(w)))
		}
	}
	return out
}

// relaxNFA folds the state set m, stepped over js's symbol, into js's set
// (st, already touched), recording a new accept and queueing js for the
// next level when its set grew.
func (sc *Scratch) relaxNFA(a *automaton, m uint64, js int32, st *slotState) {
	nm := a.step(m, st.sym)
	if nm&^st.mask == 0 {
		return
	}
	st.mask |= nm
	if st.mask&a.accept != 0 && st.flag&flagAccept == 0 {
		st.flag |= flagAccept
		sc.acc = append(sc.acc, js)
	}
	if st.flag&flagQueued == 0 {
		st.flag |= flagQueued
		sc.next = append(sc.next, int64(js))
	}
}

// startNFA seeds an NFA fixpoint walk at slot with the start set {q0}.
func (sc *Scratch) startNFA(a *automaton, slot int32, label string) {
	st, _ := sc.touch(slot)
	st.sym = a.symOf(label)
	st.mask = 1
	st.flag |= flagQueued
	sc.next = append(sc.next, int64(slot))
}

// autoWalk runs the compiled program over an index snapshot and returns
// the accepting slots (aliasing sc.acc): the root for the empty path, and
// otherwise the last link's accepting slots, each link walked from the
// previous one's. A link prefers the DFA product walk; a link whose
// determinization was declined uses the NFA bitmask fixpoint, which visits
// a slot once per state-set growth instead of once per state but computes
// the same accepting set. Both are breadth-first; the accepting set and
// the footprint are sets, so the order is free.
func autoWalk(c *Compiled, sc *Scratch, g *snap.Snapshot) []int32 {
	sc.begin(g.Slots(), int32(g.RootINode()))
	for a := c.head; a != nil && len(sc.acc) > 0; a = a.next {
		if a.dfaNext != nil {
			autoWalkDFA(a, sc, g)
		} else {
			autoWalkNFA(a, sc, g)
		}
	}
	return sc.acc
}

func autoWalkDFA(a *automaton, sc *Scratch, g *snap.Snapshot) {
	// A seed is reached again as a successor when an edge points back at
	// it, so its symbol is resolved here like any other first touch.
	for _, seed := range sc.link() {
		st, _ := sc.touch(seed)
		st.sym = a.symOf(g.LabelName(snap.ID(seed)))
		st.mask = 1 // DFA start state 0 visited
		sc.next = append(sc.next, int64(seed)<<8)
	}
	for sc.advance() {
		for _, item := range sc.cur {
			slot, q := int32(item>>8), int(item&0xFF)
			row := a.dfaNext[q*a.numSyms : (q+1)*a.numSyms]
			sc.expand(slot)
			for _, j := range g.ISucc(snap.ID(slot)) {
				js := int32(j)
				st, first := sc.touch(js)
				if first {
					st.sym = a.symOf(g.LabelName(j))
				}
				ns := row[st.sym]
				if ns < 0 {
					continue
				}
				bit := uint64(1) << uint(ns)
				if st.mask&bit != 0 {
					continue
				}
				st.mask |= bit
				sc.next = append(sc.next, int64(js)<<8|int64(ns))
				if a.dfaAccept[ns] && st.flag&flagAccept == 0 {
					st.flag |= flagAccept
					sc.acc = append(sc.acc, js)
				}
			}
		}
	}
}

func autoWalkNFA(a *automaton, sc *Scratch, g *snap.Snapshot) {
	for _, seed := range sc.link() {
		sc.startNFA(a, seed, g.LabelName(snap.ID(seed)))
	}
	for sc.advance() {
		for _, item := range sc.cur {
			slot := int32(item)
			st := &sc.slots[slot]
			st.flag &^= flagQueued
			m := st.mask
			sc.expand(slot)
			for _, j := range g.ISucc(snap.ID(slot)) {
				js := int32(j)
				st, first := sc.touch(js)
				if first {
					st.sym = a.symOf(g.LabelName(j))
				}
				sc.relaxNFA(a, m, js, st)
			}
		}
	}
}

// ---- index snapshot evaluation ----

// Eval evaluates the compiled expression on an index snapshot of either
// family and returns the matched dnodes, sorted: candidates from the
// automaton walk, backward validation when an A(k) snapshot is not
// precise for the expression, then predicate checks. The result is
// assembled into buf (overwritten from the start, grown as needed) with
// sc as the walk's state: with a warm buffer and scratch, an evaluation
// that needs no validation and no predicate checks allocates nothing.
// Each of ctx, buf and sc may be nil: a nil ctx is never cancelled, a nil
// sc borrows a pooled scratch. Neither buf nor sc may be shared between
// goroutines. Cancellation is observed between extent unions and between
// validation candidates, and a cancelled evaluation returns nil and
// ctx.Err(): no partial result.
func (c *Compiled) Eval(ctx context.Context, buf []graph.NodeID, sc *Scratch, s *snap.Snapshot) ([]graph.NodeID, error) {
	buf, err := c.candidates(ctx, buf, sc, s)
	if err != nil {
		return nil, err
	}
	// Validation and the walk read only labels and axes, so both take the
	// skeleton; predicates are checked last, on the validated survivors.
	if buf, err = validated(ctx, c.skel, s, buf); err != nil {
		return nil, err
	}
	if c.path.HasPredicates() {
		buf = filterByAllPredicates(c.path, s.Data(), buf)
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	return buf, nil
}

// EvalSnapshotFootprint evaluates like Eval, into a fresh slice, but also
// returns the evaluation's inode footprint: the slots the walk expanded —
// popped and read the successor list of, in any link — strictly ascending
// and freshly allocated. Slots the walk only read a label from (siblings
// that matched no step) are not in it. Precise is true when the result
// depends on nothing outside that footprint: any later index change that
// dirties no footprint slot provably leaves the result unchanged, which is
// the contract the result cache's targeted invalidation relies on. The
// argument is three lines:
//
//   - the result is a function of the expanded slots' successor lists,
//     their successors' labels, and the accepting slots' extents, and
//     every accepting slot is expanded (a link's accepting slots are
//     expanded in that link and again as the next link's seeds);
//   - a successor list or an extent changes only through a mutator that
//     marks that slot dirty (addIEdgeCount marks the edge's source);
//   - a label is fixed while its slot is live, and a slot can only die
//     (and be reborn under another label) with zero iedges, so losing its
//     in-edges dirties every expanded parent first.
//
// Expressions with predicates read the data graph below their candidates,
// and validation on an A(k) snapshot reads it above them, so both report
// precise=false. The returned node slice is freshly allocated and safe to
// retain.
func (c *Compiled) EvalSnapshotFootprint(ctx context.Context, sc *Scratch, s *snap.Snapshot) (nodes []graph.NodeID, footprint []int32, precise bool, err error) {
	if sc == nil {
		sc = scratchPool.Get().(*Scratch)
		defer scratchPool.Put(sc)
	}
	nodes, err = c.Eval(ctx, nil, sc, s)
	if err != nil {
		return nil, nil, false, err
	}
	return nodes, sc.footprint(), !c.path.HasPredicates() && !validates(c.skel, s), nil
}

// EvalOneSnapshotFootprint is EvalSnapshotFootprint under the name the
// repo benchmark (bench/, frozen) compiles against.
func (c *Compiled) EvalOneSnapshotFootprint(ctx context.Context, sc *Scratch, s *snap.Snapshot) ([]graph.NodeID, []int32, bool, error) {
	return c.EvalSnapshotFootprint(ctx, sc, s)
}

// candidates walks s and assembles the union of the accepting slots'
// extents into buf (overwritten from the start, grown as needed): the
// skeleton's raw answer, sorted, before validation and predicate checks.
// A nil sc borrows a pooled scratch.
func (c *Compiled) candidates(ctx context.Context, buf []graph.NodeID, sc *Scratch, s *snap.Snapshot) ([]graph.NodeID, error) {
	buf = buf[:0]
	if err := ctxErr(ctx); err != nil {
		return buf, err
	}
	if sc == nil {
		sc = scratchPool.Get().(*Scratch)
		defer scratchPool.Put(sc)
	}
	acc := autoWalk(c, sc, s)
	views := sc.ext.Views(len(acc))
	total := 0
	for n, i := range acc {
		if err := ctxErr(ctx); err != nil {
			return buf, err
		}
		views[n] = s.ExtentView(snap.ID(i))
		total += views[n].Len()
	}
	if cap(buf) < total {
		buf = make([]graph.NodeID, 0, total)
	}
	// Extents partition the dnodes, so the union is disjoint and UnionInto
	// returns buf already sorted — no post-sort.
	return extent.UnionInto(buf, &sc.ext, views), nil
}

// ---- data-graph evaluation ----

// EvalSource evaluates the compiled expression directly on a data graph —
// the compiled counterpart of EvalGraph, used as the reference in
// equivalence tests. It always runs the NFA fixpoint (data graphs are not
// slot-bounded up front, and this path is not performance-critical).
func (c *Compiled) EvalSource(g Source) []graph.NodeID {
	root := g.Root()
	if root == graph.InvalidNode {
		return nil
	}
	sc := &Scratch{}
	sc.begin(0, int32(root))
	for a := c.head; a != nil && len(sc.acc) > 0; a = a.next {
		for _, seed := range sc.link() {
			sc.startNFA(a, seed, g.LabelName(graph.NodeID(seed)))
		}
		for sc.advance() {
			for _, item := range sc.cur {
				slot := int32(item)
				st := &sc.slots[slot]
				st.flag &^= flagQueued
				m := st.mask
				g.EachSucc(graph.NodeID(slot), func(w graph.NodeID, _ graph.EdgeKind) {
					js := int32(w)
					st, first := sc.touch(js)
					if first {
						st.sym = a.symOf(g.LabelName(w))
					}
					sc.relaxNFA(a, m, js, st)
				})
			}
		}
	}
	out := make([]graph.NodeID, 0, len(sc.acc))
	for _, s := range sc.acc {
		out = append(out, graph.NodeID(s))
	}
	sortNodes(out)
	if c.path.HasPredicates() {
		return filterByAllPredicates(c.path, g, out)
	}
	return out
}
