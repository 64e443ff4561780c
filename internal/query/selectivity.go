package query

import "structix/internal/snap"

// Structural indexes double as statistical synopses for path-expression
// selectivity estimation (§1; Aboulnaga et al., Polyzotis & Garofalakis).
// Counting over index extents avoids touching the data at all: a 1-index
// snapshot gives exact counts for this package's expression language, an
// A(k) snapshot an upper bound whose slack shrinks as k grows.

// extentCount returns the number of dnodes in the extents of the slots
// the skeleton selects on s — the size of the candidates' union, read off
// the extent headers in O(1) per slot, with no data access. Predicates
// are ignored (they only ever shrink a result), and a rootless snapshot
// selects nothing.
func (c *Compiled) extentCount(s *snap.Snapshot) int {
	sc := scratchPool.Get().(*Scratch)
	defer scratchPool.Put(sc)
	n := 0
	for _, i := range autoWalk(c, sc, s) {
		n += s.ExtentSize(snap.ID(i))
	}
	return n
}

// Selectivity returns the fraction of dnodes matching p's skeleton,
// estimated from s's extent sizes alone: exact on a 1-index snapshot, an
// upper bound on an A(k) snapshot.
func Selectivity(p *Path, s *snap.Snapshot) float64 {
	n := s.Data().NumNodes()
	if n == 0 {
		return 0
	}
	return float64(MustCompile(p).extentCount(s)) / float64(n)
}
