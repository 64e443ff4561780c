package query

import (
	"math/rand"
	"strconv"
	"testing"

	"structix/internal/akindex"
	"structix/internal/graph"
	"structix/internal/gtest"
	"structix/internal/oneindex"
	"structix/internal/xmlload"
)

const predDoc = `
<site>
  <people>
    <person id="p1" vip="yes"><name>Alice</name><age>30</age></person>
    <person id="p2"><name>Bob</name><age>40</age></person>
    <person id="p3"><name>Carol</name></person>
  </people>
  <auctions>
    <auction id="a1"><seller idref="p1"/><price>10</price></auction>
    <auction id="a2"><price>20</price></auction>
  </auctions>
</site>`

func predGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := xmlload.ParseString(predDoc)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestParsePredicates(t *testing.T) {
	p := MustParse(`/site/people/person[name='Alice']/age`)
	if p.Len() != 4 {
		t.Fatalf("Len = %d", p.Len())
	}
	st := p.Steps()[2]
	if len(st.Predicates) != 1 || !st.Predicates[0].HasValue ||
		st.Predicates[0].Value != "Alice" || st.Predicates[0].Rel.String() != "/name" {
		t.Fatalf("predicate parsed wrong: %+v", st.Predicates)
	}
	if got := p.String(); got != `/site/people/person[name='Alice']/age` {
		t.Errorf("String = %q", got)
	}
	// Existence, attribute, double-quote, multi-predicate forms.
	for _, expr := range []string{
		`//person[age]`,
		`//person[@vip='yes']`,
		`//person[name="Bob"]`,
		`//person[age][name='Alice']`,
		`//auction[seller/person]`,
		`//person[//name]`,
	} {
		if _, err := Parse(expr); err != nil {
			t.Errorf("Parse(%q): %v", expr, err)
		}
	}
	for _, bad := range []string{
		`//person[`,
		`//person[]`,
		`//person[name=Alice]`,
		`//person[name='Alice]`,
		`//a[b[c]]`,
		`//a]b`,
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

func TestEvalGraphPredicates(t *testing.T) {
	g := predGraph(t)
	for expr, want := range map[string]int{
		`//person[name='Alice']`:        1,
		`//person[name]`:                3,
		`//person[age]`:                 2,
		`//person[@vip='yes']`:          1,
		`//person[@vip]`:                1,
		`//person[name='Nobody']`:       0,
		`//auction[seller]`:             1,
		`//auction[seller/person/name]`: 1,
		`//person[age='30']/name`:       1,
		`//auction[price='20']`:         1,
		`//person[age][name='Bob']`:     1,
	} {
		got := EvalGraph(MustParse(expr), g)
		if len(got) != want {
			t.Errorf("EvalGraph(%s) = %d results %v, want %d", expr, len(got), got, want)
		}
	}
}

// Index evaluation with predicates must agree with direct evaluation.
func TestIndexesHonorPredicates(t *testing.T) {
	g := predGraph(t)
	data := g.Freeze()
	one := oneindex.Build(g).Freeze(data)
	ak := akindex.Build(g, 2).Freeze(data)
	exprs := []string{
		`//person[name='Alice']`,
		`//person[age]/name`,
		`//auction[seller/person/name='Alice']`,
		`/site/people/person[@vip='yes']/name`,
		`//person[name='Bob']`,
		`/site/*[person/age='40']/person`, // predicate on a non-final step
	}
	for _, expr := range exprs {
		p := MustParse(expr)
		direct := EvalGraph(p, g)
		viaOne := EvalSnapshot(p, one)
		viaAk := EvalSnapshot(p, ak)
		if !equalIDs(direct, viaOne) {
			t.Errorf("%s: 1-index %v != direct %v", expr, viaOne, direct)
		}
		if !equalIDs(direct, viaAk) {
			t.Errorf("%s: A(k) %v != direct %v", expr, viaAk, direct)
		}
		// Raw A(k) must stay a superset even while ignoring predicates.
		raw := SnapshotCandidates(p, ak)
		set := map[graph.NodeID]bool{}
		for _, v := range raw {
			set[v] = true
		}
		for _, v := range direct {
			if !set[v] {
				t.Errorf("%s: raw A(k) missed %d", expr, v)
			}
		}
	}
}

// Randomized agreement, with random values attached to nodes.
func TestPredicateAgreementRandom(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := gtest.RandomCyclic(rng, 40, 25)
		g.EachNode(func(v graph.NodeID) {
			if rng.Intn(2) == 0 {
				g.SetValue(v, strconv.Itoa(rng.Intn(3)))
			}
		})
		data := g.Freeze()
		one := oneindex.Build(g).Freeze(data)
		ak := akindex.Build(g, 2).Freeze(data)
		labels := []string{"a", "b", "c", "d", "*"}
		for q := 0; q < 25; q++ {
			expr := randomExpr(rng)
			// Attach a random predicate to the final step.
			switch rng.Intn(3) {
			case 0:
				expr += "[" + labels[rng.Intn(len(labels))] + "]"
			case 1:
				expr += "[" + labels[rng.Intn(len(labels))] + "='" + strconv.Itoa(rng.Intn(3)) + "']"
			case 2:
				expr += "[//" + labels[rng.Intn(len(labels))] + "]"
			}
			p := MustParse(expr)
			direct := EvalGraph(p, g)
			if got := EvalSnapshot(p, one); !equalIDs(direct, got) {
				t.Fatalf("seed %d %s: 1-index %v != direct %v", seed, expr, got, direct)
			}
			if got := EvalSnapshot(p, ak); !equalIDs(direct, got) {
				t.Fatalf("seed %d %s: A(k) %v != direct %v", seed, expr, got, direct)
			}
		}
	}
}

func TestPredicateSkeleton(t *testing.T) {
	p := MustParse(`//person[name='Alice']/age[x]`)
	if !p.HasPredicates() {
		t.Fatal("HasPredicates = false")
	}
	sk := p.Skeleton()
	if sk.HasPredicates() {
		t.Errorf("skeleton still has predicates")
	}
	if sk.String() != "//person/age" {
		t.Errorf("skeleton = %s", sk)
	}
	if MustParse("/a/b").HasPredicates() {
		t.Errorf("predicate-free path reports predicates")
	}
}
