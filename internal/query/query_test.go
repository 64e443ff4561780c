package query

import (
	"math/rand"
	"testing"

	"structix/internal/akindex"
	"structix/internal/datagen"
	"structix/internal/graph"
	"structix/internal/gtest"
	"structix/internal/oneindex"
	"structix/internal/xmlload"
)

func TestParse(t *testing.T) {
	cases := map[string][]Step{
		"/a/b":   {{Label: "a"}, {Label: "b"}},
		"//a":    {{Label: "a", Descendant: true}},
		"/a//b":  {{Label: "a"}, {Label: "b", Descendant: true}},
		"a/b":    {{Label: "a"}, {Label: "b"}},
		"/a/*/c": {{Label: "a"}, {Label: "*"}, {Label: "c"}},
	}
	for expr, want := range cases {
		p, err := Parse(expr)
		if err != nil {
			t.Fatalf("Parse(%q): %v", expr, err)
		}
		got := p.Steps()
		if len(got) != len(want) {
			t.Fatalf("Parse(%q): %d steps, want %d", expr, len(got), len(want))
		}
		for i := range want {
			if got[i].Label != want[i].Label || got[i].Descendant != want[i].Descendant {
				t.Errorf("Parse(%q) step %d = %+v, want %+v", expr, i, got[i], want[i])
			}
		}
	}
	for _, bad := range []string{"", "/", "//", "/a//", "/a b"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
	if s := MustParse("/a//b").String(); s != "/a//b" {
		t.Errorf("String = %q", s)
	}
}

const doc = `
<site>
  <people>
    <person id="p1"><name>Alice</name><watches><watch idref="a1"/></watches></person>
    <person id="p2"><name>Bob</name></person>
  </people>
  <auctions>
    <auction id="a1"><seller idref="p1"/><name>lot</name></auction>
  </auctions>
</site>`

func load(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := xmlload.ParseString(doc)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestEvalGraph(t *testing.T) {
	g := load(t)
	for expr, want := range map[string]int{
		"/site/people/person":      2,
		"/site/people/person/name": 2,
		"//name":                   3, // two person names + the auction lot
		"//person//name":           3, // IDREF person→watch→auction reaches "lot" too
		"/site/auctions/auction":   1,
		"//watch/auction":          1, // IDREF edges are traversed
		"//auction/seller/person":  1, // the seller IDREF leads to Alice
		"/site/*/person":           2,
		"//nonexistent":            0,
		"/site/people/person/zzz":  0,
	} {
		p := MustParse(expr)
		got := EvalGraph(p, g)
		if len(got) != want {
			t.Errorf("EvalGraph(%q) = %d nodes %v, want %d", expr, len(got), got, want)
		}
	}
}

func equalIDs(a, b []graph.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Precision of the 1-index: its raw extent union must equal direct
// evaluation, on handcrafted and randomized graphs and expressions.
func TestOneIndexPrecise(t *testing.T) {
	g := load(t)
	x := oneindex.Build(g).Freeze(g.Freeze())
	for _, expr := range []string{
		"/site/people/person", "//name", "//person//name",
		"//watch/auction/seller", "/site/*/*", "//auction//name",
	} {
		p := MustParse(expr)
		direct := EvalGraph(p, g)
		viaIdx := SnapshotCandidates(p, x)
		if !equalIDs(direct, viaIdx) {
			t.Errorf("%q: direct %v != index %v", expr, direct, viaIdx)
		}
	}
}

func randomExpr(rng *rand.Rand) string {
	labels := []string{"a", "b", "c", "d", "e", "*"}
	n := 1 + rng.Intn(4)
	expr := ""
	for i := 0; i < n; i++ {
		if rng.Intn(3) == 0 {
			expr += "//"
		} else {
			expr += "/"
		}
		expr += labels[rng.Intn(len(labels))]
	}
	return expr
}

func TestOneIndexPreciseRandom(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := gtest.RandomCyclic(rng, 60, 40)
		x := oneindex.Build(g).Freeze(g.Freeze())
		for q := 0; q < 20; q++ {
			expr := randomExpr(rng)
			p := MustParse(expr)
			direct := EvalGraph(p, g)
			viaIdx := SnapshotCandidates(p, x)
			if !equalIDs(direct, viaIdx) {
				t.Fatalf("seed %d %q: direct %v != index %v", seed, expr, direct, viaIdx)
			}
		}
	}
}

// Safety and validated precision of the A(k)-index: raw candidates are a
// superset of the truth, exactly the truth when the snapshot needs no
// validation, and validation restores exactness.
func TestAkSafetyAndValidation(t *testing.T) {
	for _, k := range []int{1, 2, 3} {
		for seed := int64(0); seed < 4; seed++ {
			rng := rand.New(rand.NewSource(seed*13 + int64(k)))
			g := gtest.RandomCyclic(rng, 50, 35)
			x := akindex.Build(g, k).Freeze(g.Freeze())
			for q := 0; q < 15; q++ {
				expr := randomExpr(rng)
				p := MustParse(expr)
				direct := EvalGraph(p, g)
				raw := SnapshotCandidates(p, x)
				set := make(map[graph.NodeID]bool, len(raw))
				for _, v := range raw {
					set[v] = true
				}
				for _, v := range direct {
					if !set[v] {
						t.Fatalf("k=%d seed %d %q: A(k) result missed %d (unsafe!)", k, seed, expr, v)
					}
				}
				if !validates(p, x) && !equalIDs(direct, raw) {
					t.Fatalf("k=%d seed %d %q: raw %v != direct %v though precise", k, seed, expr, raw, direct)
				}
				validated := EvalSnapshot(p, x)
				if !equalIDs(direct, validated) {
					t.Fatalf("k=%d seed %d %q: validated %v != direct %v", k, seed, expr, validated, direct)
				}
			}
		}
	}
}

// Short anchored expressions need no validation on A(k) with k ≥ length.
func TestNeedsValidation(t *testing.T) {
	cases := []struct {
		expr string
		k    int
		want bool
	}{
		{"/a/b", 2, false},
		{"/a/b", 1, true},
		{"//a", 5, true},
		{"/a/b/c", 3, false},
		{"/a//b", 9, true},
	}
	for _, c := range cases {
		if got := NeedsValidation(MustParse(c.expr), c.k); got != c.want {
			t.Errorf("NeedsValidation(%q, %d) = %v, want %v", c.expr, c.k, got, c.want)
		}
	}
}

// A(k) without validation must actually produce false positives on data
// engineered for it — otherwise the validation machinery is untestable.
func TestAkFalsePositivesExist(t *testing.T) {
	g := graph.New()
	r := g.AddRoot()
	// Two chains: root→a→b→c→d and root→x→b→c→d. With k=1, the two
	// b-nodes merge (same label, same parent labels? a≠x so not at k=1)...
	// build: chains a→m→n and x→m→n where the m under a and under x are
	// 1-bisimilar only if a,x share labels. Use distance-2 difference:
	// root→a→p→m and root→b→p→m: the two p's (label p, parents a vs b)
	// differ at k≥1... so instead make them differ at depth 2:
	a := g.AddNode("top")
	b := g.AddNode("top")
	pa := g.AddNode("mid")
	pb := g.AddNode("mid")
	ma := g.AddNode("leaf")
	mb := g.AddNode("leaf")
	q := g.AddNode("q") // only under a's branch
	for _, e := range [][2]graph.NodeID{
		{r, a}, {r, b}, {a, pa}, {b, pb}, {pa, ma}, {pb, mb}, {a, q},
	} {
		if err := g.AddEdge(e[0], e[1], graph.Tree); err != nil {
			t.Fatal(err)
		}
	}
	// Make the two "top" nodes 1-distinguishable but their children not:
	// give a an extra parent-level distinction via an idref.
	extra := g.AddNode("marker")
	if err := g.AddEdge(r, extra, graph.Tree); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(extra, a, graph.IDRef); err != nil {
		t.Fatal(err)
	}
	x := akindex.Build(g, 1).Freeze(g.Freeze())
	// /site-less query: //marker/top/mid — true answer: pa only (a is the
	// only top under marker). With k=1, pa and pb share an inode iff their
	// parents share labels (both "top"): so the A(1) result contains pb.
	p := MustParse("//marker/top/mid")
	direct := EvalGraph(p, g)
	raw := SnapshotCandidates(p, x)
	if len(direct) != 1 || direct[0] != pa {
		t.Fatalf("setup wrong: direct = %v", direct)
	}
	if len(raw) <= len(direct) {
		t.Fatalf("expected false positives in raw A(1) result, got %v", raw)
	}
	validated := EvalSnapshot(p, x)
	if !equalIDs(direct, validated) {
		t.Errorf("validation failed: %v != %v", validated, direct)
	}
}

// Index evaluation must keep working across maintained updates.
func TestQueriesAfterMaintenance(t *testing.T) {
	g := datagen.XMark(datagen.DefaultXMark(128, 1, 3))
	x := oneindex.Build(g)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 20; i++ {
		u, v, ok := gtest.RandomNonEdge(rng, g)
		if !ok {
			continue
		}
		if err := x.InsertEdge(u, v, graph.IDRef); err != nil {
			t.Fatal(err)
		}
	}
	s := x.Freeze(g.Freeze())
	for _, expr := range []string{"//person/name", "/site/open_auctions/open_auction/itemref/item"} {
		p := MustParse(expr)
		if !equalIDs(EvalGraph(p, g), SnapshotCandidates(p, s)) {
			t.Errorf("%q: 1-index imprecise after maintenance", expr)
		}
	}
}
