package query

import (
	"structix/internal/akindex"
	"structix/internal/graph"
	"structix/internal/oneindex"
)

// Structural indexes double as statistical synopses for path-expression
// selectivity estimation (§1; Aboulnaga et al., Polyzotis & Garofalakis).
// Counting over index extents avoids touching the data at all: the 1-index
// gives exact counts for this package's expression language, the
// A(k)-index an upper bound whose slack shrinks as k grows.

// CountOne returns the number of dnodes matching p's skeleton, computed
// from the 1-index alone (extent sizes of the matched inodes, no data
// access). The count is exact for the skeleton: predicates — which the
// index cannot check — are ignored, so for predicate-bearing expressions
// this is the upper bound planning wants, not the exact answer
// CountOneIndex gives.
func CountOne(p *Path, x *oneindex.Index) int {
	root := x.RootINode()
	if root == oneindex.NoINode {
		return 0
	}
	n := 0
	for _, id := range run(p.Skeleton(), &oneNav{x: x, root: root}) {
		n += x.ExtentSize(oneindex.INodeID(id))
	}
	return n
}

// CountOneIndex returns the exact number of dnodes matching p. For
// predicate-free expressions the count comes from the 1-index alone
// (extent sizes of the matched inodes, no data access); predicates force
// per-candidate checks against the data graph.
func CountOneIndex(p *Path, x *oneindex.Index) int {
	if p.HasPredicates() {
		if x.Graph().Root() == graph.InvalidNode {
			return 0
		}
		return len(EvalOneIndex(p, x))
	}
	return CountOne(p, x)
}

// CountAk returns an upper bound on the number of dnodes matching p,
// computed from the A(k)-index alone. The bound is tight when the
// expression needs no validation (anchored, ≤ k steps, no descendant
// axis).
func CountAk(p *Path, x *akindex.Index) int {
	root := x.Graph().Root()
	if root == graph.InvalidNode {
		return 0
	}
	// Predicates only ever shrink the result, so counting the skeleton
	// preserves the upper bound without any data access.
	res := run(p.Skeleton(), &akNav{x: x, root: x.INodeOf(root)})
	n := 0
	for _, id := range res {
		n += x.ExtentSize(akindex.INodeID(id))
	}
	return n
}

// Selectivity returns the fraction of dnodes matching p's skeleton,
// estimated exactly from the 1-index.
func Selectivity(p *Path, x *oneindex.Index) float64 {
	n := x.NumNodes()
	if n == 0 {
		return 0
	}
	return float64(CountOne(p, x)) / float64(n)
}
