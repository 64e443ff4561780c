package query

import "structix/internal/snap"

// Structural indexes double as statistical synopses for path-expression
// selectivity estimation (§1; Aboulnaga et al., Polyzotis & Garofalakis).
// Counting over index extents avoids touching the data at all: a 1-index
// snapshot gives exact counts for this package's expression language, an
// A(k) snapshot an upper bound whose slack shrinks as k grows.

// extentCount returns the slots p's skeleton selects on s and the number
// of dnodes in their extents — the size of SnapshotCandidates' result,
// read off the extent headers in O(1) per slot, with no data access.
// Predicates are ignored (they only ever shrink a result), and a rootless
// snapshot selects nothing.
func extentCount(p *Path, s *snap.Snapshot) (n int, slots []int64) {
	slots = run(p, snapNav{s}, []int64{int64(s.RootINode())})
	for _, id := range slots {
		n += s.ExtentSize(snap.ID(id))
	}
	return n, slots
}

// Selectivity returns the fraction of dnodes matching p's skeleton,
// estimated from s's extent sizes alone: exact on a 1-index snapshot, an
// upper bound on an A(k) snapshot.
func Selectivity(p *Path, s *snap.Snapshot) float64 {
	n := s.Data().NumNodes()
	if n == 0 {
		return 0
	}
	c, _ := extentCount(p, s)
	return float64(c) / float64(n)
}
