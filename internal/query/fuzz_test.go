package query

import (
	"strings"
	"testing"

	"structix/internal/akindex"
	"structix/internal/oneindex"
	"structix/internal/snap"
	"structix/internal/xmlload"
)

// FuzzParsePath throws arbitrary byte strings at the parser; whatever it
// accepts must round-trip through String, survive predicate reordering,
// compile, and evaluate identically under the interpreter and the
// compiled automaton — over the data graph, and over the document's
// 1-index and A(2) snapshots.
func FuzzParsePath(f *testing.F) {
	for _, seed := range []string{
		"/a", "//a", "/a/b/c", "/a//b/*", "//*//*",
		"/site/people/person", "//person//name",
		"/site/people/person[name='Alice']",
		"//person[watches/watch]/name",
		"/a[b][c='x']/d", "/a[b//c][d]",
		"", "/", "//", "/a//", "/a b", "///(", "/a[", "/a[]", "/a['x']",
		strings.Repeat("/*", 70), "/site" + strings.Repeat("//*", 64) + "/name",
	} {
		f.Add(seed)
	}
	g, err := xmlload.ParseString(doc)
	if err != nil {
		f.Fatal(err)
	}
	data := g.Freeze()
	snaps := []*snap.Snapshot{oneindex.Build(g).Freeze(data), akindex.Build(g, 2).Freeze(data)}
	f.Fuzz(func(t *testing.T, expr string) {
		p, err := Parse(expr)
		if err != nil {
			return // rejected input: nothing to check
		}
		// String must render a canonical form the parser accepts and fixes.
		s := p.String()
		p2, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q) ok but reparse of String %q failed: %v", expr, s, err)
		}
		if s2 := p2.String(); s2 != s {
			t.Fatalf("String not a fixpoint: %q -> %q", s, s2)
		}
		want := EvalGraph(p, g)
		// Predicate reordering is an equivalence (conjunction).
		if got := EvalGraph(OrderPredicates(p), g); !equalIDs(got, want) {
			t.Fatalf("%q: reordered predicates changed the result: %v != %v", expr, got, want)
		}
		c, err := Compile(p)
		if err != nil {
			t.Fatalf("%q: Compile: %v", expr, err)
		}
		if got := c.EvalSource(g); !equalIDs(got, want) {
			t.Fatalf("%q: compiled %v != interpreter %v", expr, got, want)
		}
		for _, s := range snaps {
			if got := c.EvalSnapshot(s); !equalIDs(got, want) {
				t.Fatalf("%q: compiled on snapshot (bounded %v) %v != interpreter %v", expr, s.Bounded(), got, want)
			}
		}
	})
}
