package query

import (
	"strings"
	"testing"

	"structix/internal/akindex"
	"structix/internal/datagen"
	"structix/internal/oneindex"
)

// rank must return candidates cheapest-first, with the direct traversal
// always present as the universal fallback, every reason carrying its cost
// estimate, and Plan returning exactly the head of the ranking.
func TestPlannerRankOrdering(t *testing.T) {
	g := datagen.XMark(datagen.DefaultXMark(64, 1, 4))
	pl := snapPlanner(g, 3)
	for _, expr := range []string{"/site/people/person", "//person//name", "//*", "/site/*/person/name"} {
		p := MustParse(expr)
		cands := pl.rank(MustCompile(p))
		if len(cands) < 3 {
			t.Fatalf("%q: only %d candidates", expr, len(cands))
		}
		hasDirect := false
		for i, c := range cands {
			if i > 0 && cands[i-1].cost > c.cost {
				t.Errorf("%q: ranking not sorted: %v costs %.0f after %.0f",
					expr, c.plan.Strategy, c.cost, cands[i-1].cost)
			}
			if !strings.Contains(c.plan.Reason, "est. cost") {
				t.Errorf("%q: %s reason lacks cost estimate: %q", expr, c.plan.Strategy, c.plan.Reason)
			}
			if c.plan.Strategy == StrategyDirect {
				hasDirect = true
			}
		}
		if !hasDirect {
			t.Errorf("%q: direct fallback missing from ranking", expr)
		}
		if got := pl.Plan(p); got.Strategy != cands[0].plan.Strategy {
			t.Errorf("%q: Plan chose %s, ranking head is %s", expr, got.Strategy, cands[0].plan.Strategy)
		}
	}
}

// The same expression must route differently as the cost inputs move.
func TestPlannerCostFlips(t *testing.T) {
	g := datagen.XMark(datagen.DefaultXMark(64, 1, 4))
	data := g.Freeze()
	one := oneindex.Build(g).Freeze(data)
	anchored := MustParse("/site/people/person")

	// k ≥ length: the A(3) snapshot answers the 3-step expression precisely
	// with a walk bounded by the (small) A(3) size.
	with3 := &Planner{Data: data, One: one, Ak: akindex.Build(g, 3).Freeze(data)}
	if plan := with3.Plan(anchored); plan.Strategy != StrategyAkLevel || plan.Level != 3 {
		t.Errorf("k=3 anchored: got %s level %d, want ak-level 3", plan.Strategy, plan.Level)
	}
	// k < length: the level shortcut is gone and the A(2) route pays a
	// per-candidate validation surcharge — the plan must flip off AkLevel.
	with2 := &Planner{Data: data, One: one, Ak: akindex.Build(g, 2).Freeze(data)}
	if plan := with2.Plan(anchored); plan.Strategy == StrategyAkLevel {
		t.Errorf("k=2 anchored 3-step: still ak-level (%s)", plan.Reason)
	}

	// Descendant-dense expressions with broad candidate sets make the
	// validation term dominate: the ranking must charge the A(k) route
	// more than the precise 1-index route.
	wide := MustParse("//*//*//*//*")
	var akCost, oneCost float64
	for _, c := range with3.rank(MustCompile(wide)) {
		switch c.plan.Strategy {
		case StrategyAkValidated:
			akCost = c.cost
		case StrategyOneIndex:
			oneCost = c.cost
		}
	}
	if akCost == 0 || oneCost == 0 {
		t.Fatal("ranking lost a strategy candidate")
	}
	if oneCost >= akCost {
		t.Errorf("wide descendant expression: 1-index cost %.0f not below validated A(k) cost %.0f", oneCost, akCost)
	}
	if plan := with3.Plan(wide); plan.Strategy != StrategyOneIndex {
		t.Errorf("wide descendant expression: got %s (%s), want 1-index", plan.Strategy, plan.Reason)
	}
}

func TestOrderPredicates(t *testing.T) {
	// A cheap existence test must run before a descendant-bearing one.
	p := MustParse("/a[b//c][d]")
	q := OrderPredicates(p)
	if q == p {
		t.Fatal("reordering returned the input pointer")
	}
	if got, want := q.String(), "/a[d][b//c]"; got != want {
		t.Errorf("ordered form %q, want %q", got, want)
	}
	// The input itself is untouched (callers may share parsed paths).
	if got, want := p.String(), "/a[b//c][d]"; got != want {
		t.Errorf("input mutated to %q", got)
	}
	// Already-ordered paths come back as the same pointer: the warm path
	// costs one scan and zero allocations.
	if r := OrderPredicates(q); r != q {
		t.Error("ordered path was cloned again")
	}
	// Value comparisons tie-break ahead of equal-shape existence tests.
	if got, want := OrderPredicates(MustParse("/a[b][c='x']")).String(), "/a[c='x'][b]"; got != want {
		t.Errorf("value tie-break: %q, want %q", got, want)
	}
	// Both spellings canonicalize to one string — the result-cache key.
	a := OrderPredicates(MustParse("/a[d][b//c]/e")).String()
	b := OrderPredicates(MustParse("/a[b//c][d]/e")).String()
	if a != b {
		t.Errorf("cache keys diverge: %q vs %q", a, b)
	}
	// Reordering is an equivalence on real data.
	g := load(t)
	for _, expr := range []string{
		"//person[watches/watch][name]", "//person[name='Alice'][watches/watch]/name",
	} {
		pp := MustParse(expr)
		if got, want := EvalGraph(OrderPredicates(pp), g), EvalGraph(pp, g); !equalIDs(got, want) {
			t.Errorf("%q: reordered %v != original %v", expr, got, want)
		}
	}
}
