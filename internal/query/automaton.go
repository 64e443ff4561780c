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
// mutable walk state lives in a Scratch of flat, epoch-stamped slot
// arrays, so a caller that reuses one Scratch (and one result buffer)
// across queries evaluates without allocating at all.

const (
	flagAccept uint8 = 1 << iota // slot already appended to the accept list
	flagQueued                   // slot is on the NFA fixpoint worklist
)

// Scratch is the reusable per-goroutine evaluation state for compiled
// queries. The zero value is ready to use; it grows to the largest slot
// space it has seen. The per-slot arrays are reset in O(slots touched) per
// evaluation via epoch stamps, never cleared wholesale; only the expanded
// bitmap, one bit per slot, is cleared outright. A Scratch must not be
// shared between goroutines; it may be reused freely across different
// Compiled programs and snapshots.
type Scratch struct {
	epoch uint32
	stamp []uint32 // per-slot epoch of last touch
	mask  []uint64 // visited DFA states, or the NFA state set, of the slot
	sym   []uint8  // alphabet symbol of the slot's label, set on first touch
	flag  []uint8

	// expanded has one bit per slot, set when an index walk pops the slot
	// and reads its successor list: the evaluation's footprint, kept in
	// slot order so that emitting it needs no sort.
	expanded []uint64

	queue []int64
	acc   []int32 // accepting slots, in discovery order

	// ext is the scratch of the extent-union kernel that assembles the
	// result from the accepting inodes' extents (dense or compressed).
	// Between evaluations it retains views into the last snapshot's
	// extent storage, exactly like a warm result buffer.
	ext extent.KWay
}

// begin starts a new evaluation over a slot space of size n.
func (sc *Scratch) begin(n int) {
	if len(sc.stamp) < n {
		sc.grow(n)
	}
	sc.epoch++
	if sc.epoch == 0 { // wrapped: stale stamps could alias the new epoch
		clear(sc.stamp)
		sc.epoch = 1
	}
	sc.queue = sc.queue[:0]
	sc.acc = sc.acc[:0]
	clear(sc.expanded)
}

func (sc *Scratch) grow(n int) {
	stamp := make([]uint32, n)
	copy(stamp, sc.stamp)
	sc.stamp = stamp
	mask := make([]uint64, n)
	copy(mask, sc.mask)
	sc.mask = mask
	sym := make([]uint8, n)
	copy(sym, sc.sym)
	sc.sym = sym
	flag := make([]uint8, n)
	copy(flag, sc.flag)
	sc.flag = flag
	expanded := make([]uint64, (n+63)/64)
	copy(expanded, sc.expanded)
	sc.expanded = expanded
}

// touch brings a slot into the current epoch, zeroed, and reports whether
// this is the evaluation's first sight of it — the one moment the caller
// resolves the slot's label into sc.sym.
func (sc *Scratch) touch(slot int32) bool {
	if int(slot) >= len(sc.stamp) {
		sc.grow(int(slot) + 1)
	}
	if sc.stamp[slot] == sc.epoch {
		return false
	}
	sc.stamp[slot] = sc.epoch
	sc.mask[slot] = 0
	sc.flag[slot] = 0
	return true
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

// autoWalk runs the compiled automaton over an index snapshot and returns
// the accepting slots (aliasing sc.acc). The DFA product walk is preferred;
// expressions whose determinization was declined use the NFA bitmask
// fixpoint, which visits a slot once per state-set growth instead of once
// per state but computes the same accepting set.
func autoWalk(c *Compiled, sc *Scratch, g *snap.Snapshot) []int32 {
	sc.begin(g.Slots())
	root := int32(g.RootINode())
	if root < 0 {
		return sc.acc
	}
	// The root is reached again as a successor when an edge points back at
	// it, so its symbol is resolved here like any other first touch.
	sc.touch(root)
	sc.sym[root] = c.symOf(g.LabelName(snap.ID(root)))
	if c.dfaNext != nil {
		return autoWalkDFA(c, sc, g, root)
	}
	return autoWalkNFA(c, sc, g, root)
}

func autoWalkDFA(c *Compiled, sc *Scratch, g *snap.Snapshot, root int32) []int32 {
	sc.mask[root] = 1 // DFA start state 0 visited
	sc.queue = append(sc.queue, int64(root)<<8)
	for len(sc.queue) > 0 {
		item := sc.queue[len(sc.queue)-1]
		sc.queue = sc.queue[:len(sc.queue)-1]
		slot, st := int32(item>>8), int(item&0xFF)
		row := c.dfaNext[st*c.numSyms : (st+1)*c.numSyms]
		sc.expand(slot)
		for _, j := range g.ISucc(snap.ID(slot)) {
			js := int32(j)
			if sc.touch(js) {
				sc.sym[js] = c.symOf(g.LabelName(j))
			}
			ns := row[sc.sym[js]]
			if ns < 0 {
				continue
			}
			bit := uint64(1) << uint(ns)
			if sc.mask[js]&bit != 0 {
				continue
			}
			sc.mask[js] |= bit
			sc.queue = append(sc.queue, int64(js)<<8|int64(ns))
			if c.dfaAccept[ns] && sc.flag[js]&flagAccept == 0 {
				sc.flag[js] |= flagAccept
				sc.acc = append(sc.acc, js)
			}
		}
	}
	return sc.acc
}

func autoWalkNFA(c *Compiled, sc *Scratch, g *snap.Snapshot, root int32) []int32 {
	sc.mask[root] = 1 // NFA start set {q0}
	sc.flag[root] |= flagQueued
	sc.queue = append(sc.queue, int64(root))
	for len(sc.queue) > 0 {
		slot := int32(sc.queue[len(sc.queue)-1])
		sc.queue = sc.queue[:len(sc.queue)-1]
		sc.flag[slot] &^= flagQueued
		m := sc.mask[slot]
		sc.expand(slot)
		for _, j := range g.ISucc(snap.ID(slot)) {
			js := int32(j)
			if sc.touch(js) {
				sc.sym[js] = c.symOf(g.LabelName(j))
			}
			nm := c.step(m, sc.sym[js])
			if nm&^sc.mask[js] == 0 {
				continue
			}
			sc.mask[js] |= nm
			if sc.mask[js]&c.accept != 0 && sc.flag[js]&flagAccept == 0 {
				sc.flag[js] |= flagAccept
				sc.acc = append(sc.acc, js)
			}
			if sc.flag[js]&flagQueued == 0 {
				sc.flag[js] |= flagQueued
				sc.queue = append(sc.queue, int64(js))
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
	rs := int32(root)
	sc.touch(rs)
	sc.sym[rs] = c.symOf(g.LabelName(root))
	sc.mask[rs] = 1
	sc.flag[rs] |= flagQueued
	sc.queue = append(sc.queue, int64(rs))
	for len(sc.queue) > 0 {
		slot := int32(sc.queue[len(sc.queue)-1])
		sc.queue = sc.queue[:len(sc.queue)-1]
		sc.flag[slot] &^= flagQueued
		m := sc.mask[slot]
		g.EachSucc(graph.NodeID(slot), func(w graph.NodeID, _ graph.EdgeKind) {
			js := int32(w)
			if sc.touch(js) {
				sc.sym[js] = c.symOf(g.LabelName(w))
			}
			nm := c.step(m, sc.sym[js])
			if nm&^sc.mask[js] == 0 {
				return
			}
			sc.mask[js] |= nm
			if sc.mask[js]&c.accept != 0 && sc.flag[js]&flagAccept == 0 {
				sc.flag[js] |= flagAccept
				sc.acc = append(sc.acc, js)
			}
			if sc.flag[js]&flagQueued == 0 {
				sc.flag[js] |= flagQueued
				sc.queue = append(sc.queue, int64(js))
			}
		})
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
