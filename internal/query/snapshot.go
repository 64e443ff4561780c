package query

import (
	"context"
	"slices"

	"structix/internal/graph"
	"structix/internal/snap"
)

// Snapshot evaluation: the automaton, validator and predicate machinery
// running entirely against an immutable index snapshot and its frozen data
// graph — the one read model of every index evaluator in this package.
// Nothing here reads mutable state, so any number of goroutines may call
// these while the live index is being maintained.
//
// One family serves both index kinds. A 1-index snapshot is precise for
// every skeleton; an A(k) snapshot (s.Bounded()) only for anchored,
// descendant-free paths of at most k steps, so beyond that its candidates
// are validated backward against the frozen graph. Either way the result
// is exact, predicates included.
//
// Every evaluator has a Ctx variant that observes cancellation: the
// context is checked between extent unions and between validation
// candidates, so an abandoned request (e.g. an HTTP client that hung up)
// stops paying for its result set mid-assembly. A nil context — which is
// what the non-Ctx entry points pass — disables the checks entirely and
// keeps the original behavior and allocation profile.

// ctxErr returns ctx.Err(), treating a nil context as never cancelled.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// validates reports whether evaluating the skeleton p on s yields
// candidates that must be checked against the data graph.
func validates(p *Path, s *snap.Snapshot) bool {
	return s.Bounded() && NeedsValidation(p, s.K())
}

// validated filters cand — the sorted candidates the skeleton p selected
// on s — in place down to the true matches: each survivor has a root path
// matching p in the frozen graph. A no-op when s is precise for p.
func validated(ctx context.Context, p *Path, s *snap.Snapshot, cand []graph.NodeID) ([]graph.NodeID, error) {
	if !validates(p, s) {
		return cand, nil
	}
	va := newValidator(p, s.Data())
	out := cand[:0]
	for _, c := range cand {
		if err := ctxErr(ctx); err != nil {
			return out[:0], err
		}
		if va.matches(c) {
			out = append(out, c)
		}
	}
	return out, nil
}

// EvalSnapshot evaluates the expression on an index snapshot and returns
// the matched dnodes, sorted — the exact result, with no access to
// mutable state.
func EvalSnapshot(p *Path, s *snap.Snapshot) []graph.NodeID {
	return EvalSnapshotInto(nil, p, s)
}

// EvalSnapshotCtx is EvalSnapshot under a context: evaluation stops with
// ctx.Err() as soon as cancellation is observed, returning no partial
// result.
func EvalSnapshotCtx(ctx context.Context, p *Path, s *snap.Snapshot) ([]graph.NodeID, error) {
	return EvalSnapshotIntoCtx(ctx, nil, p, s)
}

// EvalSnapshotInto is EvalSnapshot assembling the result into buf
// (overwritten from the start, grown as needed) and returning it. A caller
// issuing many queries against successive snapshots reuses one buffer —
// and thereby the sort scratch — across calls instead of allocating a
// fresh union slice per query. The buffer must not be shared between
// goroutines; the snapshot itself may be.
func EvalSnapshotInto(buf []graph.NodeID, p *Path, s *snap.Snapshot) []graph.NodeID {
	out, _ := EvalSnapshotIntoCtx(nil, buf, p, s)
	return out
}

// EvalSnapshotIntoCtx combines the buffer-reuse contract of
// EvalSnapshotInto with the cancellation contract of EvalSnapshotCtx.
func EvalSnapshotIntoCtx(ctx context.Context, buf []graph.NodeID, p *Path, s *snap.Snapshot) ([]graph.NodeID, error) {
	buf, err := SnapshotCandidates(ctx, buf, p, s)
	if err != nil {
		return buf, err
	}
	// Validation and the walk read only labels and axes, so both take p as
	// it is; predicates are checked last, on the validated survivors.
	if buf, err = validated(ctx, p, s, buf); err != nil {
		return buf, err
	}
	if p.HasPredicates() {
		buf = filterByAllPredicates(p, s.Data(), buf)
	}
	return buf, ctxErr(ctx)
}

// SnapshotCandidates returns the union of the extents of the slots p's
// skeleton selects on s, sorted and assembled into buf like
// EvalSnapshotInto: the raw answer, before validation and predicate
// checks. It is exact for the skeleton when s is precise for it (a
// 1-index, or an A(k) snapshot and an anchored, descendant-free path of
// at most k steps); otherwise it is a safe superset, and its surplus is
// the false positives EvalSnapshot's validation removes.
func SnapshotCandidates(ctx context.Context, buf []graph.NodeID, p *Path, s *snap.Snapshot) ([]graph.NodeID, error) {
	buf = buf[:0]
	if s.RootINode() == snap.NoID {
		return buf, ctxErr(ctx)
	}
	if err := ctxErr(ctx); err != nil {
		return buf, err
	}
	total, slots := extentCount(p, s)
	buf = slices.Grow(buf, total)
	for _, n := range slots {
		if err := ctxErr(ctx); err != nil {
			return buf[:0], err
		}
		buf = s.ExtentView(snap.ID(n)).AppendTo(buf)
	}
	sortNodes(buf)
	return buf, ctxErr(ctx)
}

// CountSnapshot returns the exact number of dnodes matching p, from extent
// sizes alone when the snapshot is precise for p, by evaluating otherwise
// (predicates, or an A(k) snapshot whose candidates need validation).
func CountSnapshot(p *Path, s *snap.Snapshot) int {
	n, _ := CountSnapshotCtx(nil, p, s)
	return n
}

// CountSnapshotCtx is CountSnapshot under a context.
func CountSnapshotCtx(ctx context.Context, p *Path, s *snap.Snapshot) (int, error) {
	if p.HasPredicates() || validates(p, s) {
		out, err := EvalSnapshotCtx(ctx, p, s)
		return len(out), err
	}
	if err := ctxErr(ctx); err != nil {
		return 0, err
	}
	n, _ := extentCount(p, s)
	return n, ctxErr(ctx)
}

type snapNav struct{ s *snap.Snapshot }

func (n snapNav) succ(v int64, fn func(int64)) {
	for _, j := range n.s.ISucc(snap.ID(v)) {
		fn(int64(j))
	}
}
func (n snapNav) labelMatches(v int64, label string) bool {
	return label == "*" || n.s.LabelName(snap.ID(v)) == label
}
