package query

import (
	"math/rand"
	"strconv"
	"testing"

	"structix/internal/akindex"
	"structix/internal/datagen"
	"structix/internal/graph"
	"structix/internal/gtest"
	"structix/internal/oneindex"
)

// snapPlanner pins a 1-index snapshot and an A(k) snapshot of g at one
// read point (index construction leaves g untouched, so both share it).
func snapPlanner(g *graph.Graph, k int) *Planner {
	data := g.Freeze()
	return &Planner{
		Data: data,
		One:  oneindex.Build(g).Freeze(data),
		Ak:   akindex.Build(g, k).Freeze(data),
	}
}

// Whatever the planner picks, the answer must be exact.
func TestPlannerAlwaysExact(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed * 11))
		g := gtest.RandomCyclic(rng, 50, 35)
		g.EachNode(func(v graph.NodeID) {
			if rng.Intn(2) == 0 {
				g.SetValue(v, strconv.Itoa(rng.Intn(3)))
			}
		})
		pl := snapPlanner(g, 3)
		for q := 0; q < 20; q++ {
			expr := randomExpr(rng)
			if rng.Intn(3) == 0 {
				expr += "[a='1']"
			}
			p := MustParse(expr)
			want := EvalGraph(p, g)
			got, plan := pl.Eval(p)
			if !equalIDs(want, got) {
				t.Fatalf("seed %d %s via %s: %v != %v", seed, expr, plan.Strategy, got, want)
			}
			if plan.Reason == "" {
				t.Errorf("empty plan reason")
			}
		}
	}
}

// Every strategy the planner ranks must be exact, not only the winner, on
// snapshots of both families patched along a stream of every kind of
// write, over acyclic and cyclic graphs.
func TestPlannerExactOnPatchedChain(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(*rand.Rand) *graph.Graph
	}{
		{"dag", func(rng *rand.Rand) *graph.Graph { return gtest.RandomDAG(rng, 60, 30) }},
		{"cyclic", func(rng *rand.Rand) *graph.Graph { return gtest.RandomCyclic(rng, 60, 30) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.build(rand.New(rand.NewSource(7)))
			one, ak := oneindex.Build(g), akindex.Build(g.Clone(), 2)
			// Two churners on one seed drive the same write stream through
			// the families' twin graphs, so one frozen graph is the data of
			// both snapshots.
			churnOne := gtest.Churner{Rng: rand.New(rand.NewSource(11)), X: one}
			churnAk := gtest.Churner{Rng: rand.New(rand.NewSource(11)), X: ak}
			dataOne, dataAk := one.Graph().Freeze(), ak.Graph().Freeze()
			pl := &Planner{Data: dataOne, One: one.Freeze(dataOne), Ak: ak.Freeze(dataAk)}
			rng := rand.New(rand.NewSource(13))
			seen := map[Strategy]int{}
			for step := 0; step < 60; step++ {
				what, err := churnOne.Step()
				if err != nil {
					t.Fatalf("step %d (%s) on the 1-index: %v", step, what, err)
				}
				if _, err := churnAk.Step(); err != nil {
					t.Fatalf("step %d (%s) on A(k): %v", step, what, err)
				}
				dataOne, dataAk = one.Graph().Freeze(), ak.Graph().Freeze()
				if d := gtest.FrozenDiff(dataOne, dataAk); d != "" {
					t.Fatalf("step %d (%s): twin graphs diverged: %s", step, what, d)
				}
				pl = &Planner{Data: dataOne, One: one.PatchSnapshot(pl.One, dataOne), Ak: ak.PatchSnapshot(pl.Ak, dataAk)}
				for q := 0; q < 6; q++ {
					expr := randomExpr(rng)
					if rng.Intn(4) == 0 {
						expr += "[b]"
					}
					p := MustParse(expr)
					want := EvalGraph(p, dataOne)
					cp := MustCompile(p)
					for _, c := range pl.rank(cp) {
						seen[c.plan.Strategy]++
						if got := pl.exec(cp, c.plan.Strategy); !equalIDs(got, want) {
							t.Fatalf("step %d (%s) %s via %s: %v, graph says %v", step, what, expr, c.plan.Strategy, got, want)
						}
					}
				}
			}
			for _, s := range []Strategy{StrategyAkLevel, StrategyAkValidated, StrategyOneIndex, StrategyDirect} {
				if seen[s] == 0 {
					t.Errorf("strategy %s never ranked: the check is vacuous for it", s)
				}
			}
		})
	}
}

// fakeAccelerator implements ValueAccelerator for planner testing.
type fakeAccelerator struct {
	called bool
	result []graph.NodeID
}

func (f *fakeAccelerator) EvalValuePredicate(p *Path) ([]graph.NodeID, bool) {
	f.called = true
	return f.result, true
}

func TestPlannerUsesValueAccelerator(t *testing.T) {
	g, _, _, ids := fig2()
	fa := &fakeAccelerator{result: []graph.NodeID{ids["3"]}}
	pl := &Planner{Data: g.Freeze(), Values: fa}
	p := MustParse(`//b[c='x']`)
	plan := pl.Plan(p)
	if plan.Strategy != StrategyValueIndex {
		t.Fatalf("got %s, want value-index", plan.Strategy)
	}
	res, _ := pl.Eval(p)
	if !fa.called || len(res) != 1 {
		t.Errorf("accelerator not used: called=%v res=%v", fa.called, res)
	}
	// Non-accelerable shapes bypass the accelerator.
	fa.called = false
	if plan := pl.Plan(MustParse(`//b[c]`)); plan.Strategy == StrategyValueIndex {
		t.Errorf("existence predicate routed to value index")
	}
}

func fig2() (*graph.Graph, graph.NodeID, graph.NodeID, map[string]graph.NodeID) {
	return gtest.Fig2()
}

// Strategy selection sanity on a dataset with known shape.
func TestPlannerStrategyChoices(t *testing.T) {
	g := datagen.XMark(datagen.DefaultXMark(64, 1, 4))
	pl := snapPlanner(g, 3)
	// Short anchored: must use the precise A(k) level without validation.
	plan := pl.Plan(MustParse("/site/people/person"))
	if plan.Strategy != StrategyAkLevel || plan.Level != 3 {
		t.Errorf("short anchored: got %s level %d", plan.Strategy, plan.Level)
	}
	// Long descendant on a highly cyclic graph (big 1-index, small A(k)):
	// validated A(k).
	plan = pl.Plan(MustParse("//person//watch/open_auction"))
	if plan.Strategy != StrategyAkValidated {
		t.Errorf("descendant on cyclic: got %s (%s)", plan.Strategy, plan.Reason)
	}
	// Without an A(k) index: 1-index when it is materially smaller.
	plNoAk := &Planner{Data: pl.Data, One: pl.One}
	plan = plNoAk.Plan(MustParse("//person/name"))
	if plan.Strategy != StrategyOneIndex && plan.Strategy != StrategyDirect {
		t.Errorf("no-ak fallback: got %s", plan.Strategy)
	}
	// Bare planner: direct.
	plBare := &Planner{Data: pl.Data}
	if plan = plBare.Plan(MustParse("//name")); plan.Strategy != StrategyDirect {
		t.Errorf("bare planner: got %s", plan.Strategy)
	}
	// Strategy names render.
	for _, s := range []Strategy{StrategyAkLevel, StrategyAkValidated, StrategyOneIndex, StrategyDirect} {
		if s.String() == "" {
			t.Errorf("empty strategy name")
		}
	}
}
