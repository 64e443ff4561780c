package query

import (
	"context"

	"structix/internal/graph"
	"structix/internal/snap"
)

// Snapshot evaluation: the automaton, validator and predicate machinery
// running entirely against an immutable index snapshot and its frozen data
// graph — the one read model of every index evaluator in this package.
// Nothing here reads mutable state, so any number of goroutines may call
// these while the live index is being maintained. The functions taking a
// *Path compile it and run the Compiled program: the automaton walk is the
// only code that reads a snapshot's successor lists.
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
// mutable state. It compiles p on every call; a caller that repeats one
// expression compiles it once and keeps the Compiled.
func EvalSnapshot(p *Path, s *snap.Snapshot) []graph.NodeID {
	return MustCompile(p).EvalSnapshot(s)
}

// EvalSnapshotCtx is EvalSnapshot under a context: evaluation stops with
// ctx.Err() as soon as cancellation is observed, returning no partial
// result.
func EvalSnapshotCtx(ctx context.Context, p *Path, s *snap.Snapshot) ([]graph.NodeID, error) {
	return MustCompile(p).EvalSnapshotIntoCtx(ctx, nil, nil, s)
}

// SnapshotCandidates returns the union of the extents of the slots p's
// skeleton selects on s, sorted: the raw answer, before validation and
// predicate checks. It is exact for the skeleton when s is precise for it
// (a 1-index, or an A(k) snapshot and an anchored, descendant-free path
// of at most k steps); otherwise it is a safe superset, and its surplus is
// the false positives EvalSnapshot's validation removes.
func SnapshotCandidates(p *Path, s *snap.Snapshot) []graph.NodeID {
	out, _ := MustCompile(p).candidates(nil, nil, nil, s)
	return out
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
	c := MustCompile(p)
	if p.HasPredicates() || validates(p, s) {
		out, err := c.EvalSnapshotIntoCtx(ctx, nil, nil, s)
		return len(out), err
	}
	if err := ctxErr(ctx); err != nil {
		return 0, err
	}
	return c.extentCount(s), ctxErr(ctx)
}
