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
// these while the live index is being maintained. Every snapshot read is
// a method of a Compiled program, one per question — Eval, Count,
// Candidates, Selectivity, and EvalSnapshotFootprint for the result
// cache — so the automaton walk is the only code that reads a snapshot's
// successor lists.
//
// One family serves both index kinds. A 1-index snapshot is precise for
// every skeleton; an A(k) snapshot (s.Bounded()) only for anchored,
// descendant-free paths of at most k steps, so beyond that its candidates
// are validated backward against the frozen graph. Either way the result
// is exact, predicates included.
//
// The evaluators taking a context observe cancellation: the context is
// checked between extent unions and between validation candidates, so an
// abandoned request (e.g. an HTTP client that hung up) stops paying for
// its result set mid-assembly. A nil context disables the checks
// entirely and keeps the allocation profile of an uncancellable read.

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

// Candidates returns the union of the extents of the slots the skeleton
// selects on s, sorted: the raw answer, before validation and predicate
// checks. It is exact for the skeleton when s is precise for it (a
// 1-index, or an A(k) snapshot and an anchored, descendant-free path of
// at most k steps); otherwise it is a safe superset, and its surplus is
// the false positives Eval's validation removes.
func (c *Compiled) Candidates(s *snap.Snapshot) []graph.NodeID {
	out, _ := c.candidates(nil, nil, nil, s)
	return out
}

// Count returns the exact number of dnodes matching the expression on s,
// from extent sizes alone when s is precise for it, by evaluating
// otherwise (predicates, or an A(k) snapshot whose candidates need
// validation). A nil ctx is never cancelled; a cancelled count returns 0
// and ctx.Err().
func (c *Compiled) Count(ctx context.Context, s *snap.Snapshot) (int, error) {
	if c.path.HasPredicates() || validates(c.skel, s) {
		out, err := c.Eval(ctx, nil, nil, s)
		return len(out), err
	}
	if err := ctxErr(ctx); err != nil {
		return 0, err
	}
	n := c.extentCount(s)
	if err := ctxErr(ctx); err != nil {
		return 0, err
	}
	return n, nil
}
