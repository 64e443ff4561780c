package query

import (
	"context"
	"math/bits"

	"structix/internal/extent"
	"structix/internal/graph"
	"structix/internal/snap"
)

// Automaton evaluation: one product-construction walk of (index graph ×
// compiled automaton) replaces the per-step frontier maps of run(). All
// mutable walk state lives in a Scratch of epoch-stamped slot records, so
// a caller that reuses one Scratch (and one result buffer) across queries
// evaluates without allocating at all.

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
// per evaluation via epoch stamps, never cleared wholesale; only the
// expanded bitmap, one bit per slot, is cleared outright.
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
	// and reads its successor list: the evaluation's footprint, kept in
	// slot order so that emitting it needs no sort.
	expanded []uint64

	cur, next []int64 // the level being expanded, and the one it discovers
	acc       []int32 // accepting slots, in discovery order

	// ext is the scratch of the extent-union kernel that assembles the
	// result from the accepting inodes' extents (dense or compressed).
	// Between evaluations it retains views into the last snapshot's
	// extent storage, exactly like a warm result buffer.
	ext extent.KWay
}

// begin starts a new evaluation over a slot space of size n.
func (sc *Scratch) begin(n int) {
	if len(sc.slots) < n {
		sc.grow(n)
	}
	sc.epoch++
	if sc.epoch == 0 { // wrapped: stale stamps could alias the new epoch
		clear(sc.slots)
		sc.epoch = 1
	}
	sc.cur, sc.next = sc.cur[:0], sc.next[:0]
	sc.acc = sc.acc[:0]
	clear(sc.expanded)
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
// record with whether this is the evaluation's first sight of it — the
// one moment the caller resolves the slot's label into sym. The record
// stays valid until the next touch.
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
func (sc *Scratch) relaxNFA(c *Compiled, m uint64, js int32, st *slotState) {
	nm := c.step(m, st.sym)
	if nm&^st.mask == 0 {
		return
	}
	st.mask |= nm
	if st.mask&c.accept != 0 && st.flag&flagAccept == 0 {
		st.flag |= flagAccept
		sc.acc = append(sc.acc, js)
	}
	if st.flag&flagQueued == 0 {
		st.flag |= flagQueued
		sc.next = append(sc.next, int64(js))
	}
}

// startNFA seeds an NFA fixpoint walk at root with the start set {q0}.
func (sc *Scratch) startNFA(c *Compiled, root int32, label string) {
	st, _ := sc.touch(root)
	st.sym = c.symOf(label)
	st.mask = 1
	st.flag |= flagQueued
	sc.next = append(sc.next, int64(root))
}

// autoWalk runs the compiled automaton over an index snapshot and returns
// the accepting slots (aliasing sc.acc). The DFA product walk is preferred;
// expressions whose determinization was declined use the NFA bitmask
// fixpoint, which visits a slot once per state-set growth instead of once
// per state but computes the same accepting set. Both are breadth-first;
// the accepting set and the footprint are sets, so the order is free.
func autoWalk(c *Compiled, sc *Scratch, g *snap.Snapshot) []int32 {
	sc.begin(g.Slots())
	root := int32(g.RootINode())
	if root < 0 {
		return sc.acc
	}
	if c.dfaNext != nil {
		return autoWalkDFA(c, sc, g, root)
	}
	return autoWalkNFA(c, sc, g, root)
}

func autoWalkDFA(c *Compiled, sc *Scratch, g *snap.Snapshot, root int32) []int32 {
	// The root is reached again as a successor when an edge points back at
	// it, so its symbol is resolved here like any other first touch.
	st, _ := sc.touch(root)
	st.sym = c.symOf(g.LabelName(snap.ID(root)))
	st.mask = 1 // DFA start state 0 visited
	sc.next = append(sc.next, int64(root)<<8)
	for sc.advance() {
		for _, item := range sc.cur {
			slot, q := int32(item>>8), int(item&0xFF)
			row := c.dfaNext[q*c.numSyms : (q+1)*c.numSyms]
			sc.expand(slot)
			for _, j := range g.ISucc(snap.ID(slot)) {
				js := int32(j)
				st, first := sc.touch(js)
				if first {
					st.sym = c.symOf(g.LabelName(j))
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
				if c.dfaAccept[ns] && st.flag&flagAccept == 0 {
					st.flag |= flagAccept
					sc.acc = append(sc.acc, js)
				}
			}
		}
	}
	return sc.acc
}

func autoWalkNFA(c *Compiled, sc *Scratch, g *snap.Snapshot, root int32) []int32 {
	sc.startNFA(c, root, g.LabelName(snap.ID(root)))
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
					st.sym = c.symOf(g.LabelName(j))
				}
				sc.relaxNFA(c, m, js, st)
			}
		}
	}
	return sc.acc
}

// ---- index snapshot evaluation ----

// EvalSnapshot evaluates the compiled expression on an index snapshot of
// either family and returns the matched dnodes, sorted — the compiled
// counterpart of EvalSnapshot(p, s), with the identical (exact) result
// contract: candidates from the automaton walk, backward validation when
// an A(k) snapshot is not precise for the expression, then predicate
// checks.
func (c *Compiled) EvalSnapshot(s *snap.Snapshot) []graph.NodeID {
	return c.EvalSnapshotInto(nil, nil, s)
}

// EvalSnapshotInto is EvalSnapshot assembling the result into buf and
// reusing sc across calls: with a warm buffer and scratch the whole
// evaluation allocates nothing. A nil sc uses a throwaway scratch; neither
// buf nor sc may be shared between goroutines.
func (c *Compiled) EvalSnapshotInto(buf []graph.NodeID, sc *Scratch, s *snap.Snapshot) []graph.NodeID {
	out, _ := c.EvalSnapshotIntoCtx(nil, buf, sc, s)
	return out
}

// EvalSnapshotFootprint evaluates like EvalSnapshotIntoCtx but also
// returns the evaluation's inode footprint: the slots the walk expanded —
// popped and read the successor list of — strictly ascending and freshly
// allocated. Slots the walk only read a label from (siblings that matched
// no step) are not in it. Precise is true when the result depends on
// nothing outside that footprint: any later index change that dirties no
// footprint slot provably leaves the result unchanged, which is the
// contract the result cache's targeted invalidation relies on. The
// argument is three lines:
//
//   - the result is a function of the expanded slots' successor lists,
//     their successors' labels, and the accepting slots' extents, and
//     every accepting slot is expanded;
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
		sc = &Scratch{}
	}
	nodes, err = c.EvalSnapshotIntoCtx(ctx, nil, sc, s)
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

// EvalSnapshotIntoCtx is EvalSnapshotInto under a context, observing
// cancellation between extent unions and between validation candidates.
func (c *Compiled) EvalSnapshotIntoCtx(ctx context.Context, buf []graph.NodeID, sc *Scratch, s *snap.Snapshot) ([]graph.NodeID, error) {
	if sc == nil {
		sc = &Scratch{}
	}
	buf = buf[:0]
	if err := ctxErr(ctx); err != nil {
		return buf, err
	}
	acc := autoWalk(c, sc, s)
	views := sc.ext.Views(len(acc))
	total := 0
	for n, i := range acc {
		if err := ctxErr(ctx); err != nil {
			return buf[:0], err
		}
		views[n] = s.ExtentView(snap.ID(i))
		total += views[n].Len()
	}
	if cap(buf) < total {
		buf = make([]graph.NodeID, 0, total)
	}
	// Extents partition the dnodes, so the union is disjoint and UnionInto
	// returns buf already sorted — no post-sort.
	buf, err := validated(ctx, c.skel, s, extent.UnionInto(buf, &sc.ext, views))
	if err != nil {
		return buf, err
	}
	if c.path.HasPredicates() {
		return filterByAllPredicates(c.path, s.Data(), buf), ctxErr(ctx)
	}
	return buf, ctxErr(ctx)
}

// ---- data-graph evaluation ----

// EvalSource evaluates the compiled expression directly on a data graph —
// the compiled counterpart of EvalGraph, used as the reference in
// equivalence tests. It always runs the NFA fixpoint (data graphs are not
// slot-bounded up front, and this path is not performance-critical).
func (c *Compiled) EvalSource(g Source) []graph.NodeID {
	sc := &Scratch{}
	sc.begin(0)
	root := g.Root()
	if root == graph.InvalidNode {
		return nil
	}
	sc.startNFA(c, int32(root), g.LabelName(root))
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
					st.sym = c.symOf(g.LabelName(w))
				}
				sc.relaxNFA(c, m, js, st)
			})
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
