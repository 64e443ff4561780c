package query

import (
	"math/rand"
	"testing"

	"structix/internal/akindex"
	"structix/internal/graph"
	"structix/internal/gtest"
	"structix/internal/oneindex"
	"structix/internal/snap"
)

// Snapshot evaluation must equal direct evaluation of the live graph taken
// at the same instant, across randomized graphs, expressions, and
// maintenance batches with incrementally patched snapshots.
func TestSnapshotEvalMatchesLive(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := gtest.RandomCyclic(rng, 50, 35)
		one := oneindex.Build(g)
		k := 1 + int(seed%3)
		ak := akindex.Build(g.Clone(), k)

		oneSnap := one.Freeze(one.Graph().Freeze())
		akSnap := ak.Freeze(ak.Graph().Freeze())
		checkSnapshots := func(round int) {
			for q := 0; q < 12; q++ {
				p := MustParse(randomExpr(rng))
				for _, c := range []struct {
					name string
					g    *graph.Graph
					s    *snap.Snapshot
				}{{"1-index", one.Graph(), oneSnap}, {"A(k)", ak.Graph(), akSnap}} {
					want := EvalGraph(p, c.g)
					if got := EvalSnapshot(p, c.s); !equalIDs(got, want) {
						t.Fatalf("seed %d round %d %q: %s snapshot %v != live %v", seed, round, p, c.name, got, want)
					}
					if got := CountSnapshot(p, c.s); got != len(want) {
						t.Fatalf("seed %d round %d %q: %s snapshot count %d != live %d", seed, round, p, c.name, got, len(want))
					}
				}
			}
		}
		checkSnapshots(-1)
		simOne := one.Graph().Clone()
		simAk := ak.Graph().Clone()
		for round := 0; round < 3; round++ {
			if err := one.ApplyBatch(gtest.RandomOpBatch(rng, simOne, 8, false)); err != nil {
				t.Fatal(err)
			}
			if err := ak.ApplyBatch(gtest.RandomOpBatch(rng, simAk, 8, false)); err != nil {
				t.Fatal(err)
			}
			oneSnap = one.PatchSnapshot(oneSnap, one.Graph().Freeze())
			akSnap = ak.PatchSnapshot(akSnap, ak.Graph().Freeze())
			checkSnapshots(round)
		}
	}
}

// Predicates must work against a snapshot's frozen graph exactly as they
// do against the live graph.
func TestSnapshotPredicates(t *testing.T) {
	g := load(t)
	data := g.Freeze()
	oneSnap := oneindex.Build(g).Freeze(data)
	akSnap := akindex.Build(g, 2).Freeze(data)
	for _, expr := range []string{
		"/site/people/person[name='Alice']",
		"//person[name]",
		"//person[watches/watch]/name",
		"//auction[name='lot']",
		"//person[name='Nobody']",
	} {
		p := MustParse(expr)
		want := EvalGraph(p, g)
		if got := EvalSnapshot(p, oneSnap); !equalIDs(got, want) {
			t.Errorf("%q: 1-index snapshot %v != live %v", expr, got, want)
		}
		if got := EvalSnapshot(p, akSnap); !equalIDs(got, want) {
			t.Errorf("%q: A(k) snapshot %v != live %v", expr, got, want)
		}
	}
}

// A snapshot taken before maintenance keeps answering with the old state:
// the frozen pair (index view, data view) stays internally consistent.
func TestSnapshotStability(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := gtest.RandomDAG(rng, 40, 20)
	x := oneindex.Build(g)
	snap := x.Freeze(g.Freeze())
	p := MustParse("//a//b")
	before := EvalSnapshot(p, snap)

	sim := g.Clone()
	for round := 0; round < 4; round++ {
		if err := x.ApplyBatch(gtest.RandomOpBatch(rng, sim, 10, false)); err != nil {
			t.Fatal(err)
		}
	}
	after := EvalSnapshot(p, snap)
	if !equalIDs(before, after) {
		t.Fatalf("snapshot answer changed under maintenance: %v -> %v", before, after)
	}
	// And the old snapshot still agrees with a direct evaluation of its own
	// frozen graph.
	if direct := EvalGraph(p, snap.Data()); !equalIDs(after, direct) {
		t.Fatalf("snapshot %v != direct over frozen graph %v", after, direct)
	}
}

// A(k) snapshots for every k from 1 to 4: raw candidates are safe,
// validated evaluation is exact, and candidates are already exact whenever
// the snapshot needs no validation.
func TestEvalAkLevel(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed * 3))
		g := gtest.RandomCyclic(rng, 50, 30)
		data := g.Freeze()
		family := map[int]*snap.Snapshot{}
		for k := 1; k <= 4; k++ {
			family[k] = akindex.Build(g, k).Freeze(data)
		}
		for q := 0; q < 15; q++ {
			expr := randomExpr(rng)
			p := MustParse(expr)
			direct := EvalGraph(p, g)
			for k, s := range family {
				raw := SnapshotCandidates(p, s)
				set := make(map[graph.NodeID]bool, len(raw))
				for _, v := range raw {
					set[v] = true
				}
				for _, v := range direct {
					if !set[v] {
						t.Fatalf("seed %d k=%d %s: missed %d (unsafe)", seed, k, expr, v)
					}
				}
				if !validates(p, s) && !equalIDs(direct, raw) {
					t.Fatalf("seed %d k=%d %s: raw %v != direct %v though precise", seed, k, expr, raw, direct)
				}
				if validated := EvalSnapshot(p, s); !equalIDs(direct, validated) {
					t.Fatalf("seed %d k=%d %s: validated %v != direct %v",
						seed, k, expr, validated, direct)
				}
			}
		}
	}
}

// Short anchored expressions on an A(k) snapshot with k ≥ length need no
// validation: the raw candidates are already exact.
func TestEvalAkLevelPreciseWhenShort(t *testing.T) {
	g, _, _, _ := gtest.Fig2()
	data := g.Freeze()
	for _, tc := range []struct {
		expr string
		k    int
	}{
		{"/a", 1}, {"/a/b", 2}, {"/a/b/c", 3}, {"/e/b/c", 3},
	} {
		p := MustParse(tc.expr)
		s := akindex.Build(g, tc.k).Freeze(data)
		if validates(p, s) {
			t.Errorf("%s on A(%d): validates", tc.expr, tc.k)
		}
		direct := EvalGraph(p, g)
		if raw := SnapshotCandidates(p, s); !equalIDs(direct, raw) {
			t.Errorf("%s on A(%d): raw %v != direct %v (should be precise)",
				tc.expr, tc.k, raw, direct)
		}
	}
}

// Counts from snapshots: exact on either family (CountSnapshot), and the
// index-only extent count is exact on the 1-index and never undercounts
// on A(k).
func TestCountsAgainstDirectEvaluation(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := gtest.RandomCyclic(rng, 50, 30)
		data := g.Freeze()
		one := oneindex.Build(g).Freeze(data)
		ak := akindex.Build(g, 2).Freeze(data)
		for q := 0; q < 15; q++ {
			p := MustParse(randomExpr(rng))
			want := len(EvalGraph(p, g))
			if got := CountSnapshot(p, one); got != want {
				t.Fatalf("seed %d %s: 1-index CountSnapshot = %d, want %d", seed, p, got, want)
			}
			if got := MustCompile(p).extentCount(one); got != want {
				t.Fatalf("seed %d %s: 1-index extent count = %d, want %d", seed, p, got, want)
			}
			if got := CountSnapshot(p, ak); got != want {
				t.Fatalf("seed %d %s: A(k) CountSnapshot = %d, want %d", seed, p, got, want)
			}
			if got := MustCompile(p).extentCount(ak); got < want {
				t.Fatalf("seed %d %s: A(k) extent count = %d undercounts %d", seed, p, got, want)
			}
		}
	}
}

// Tight A(k) extent count for short anchored expressions.
func TestCountAkTightWhenPrecise(t *testing.T) {
	g, _, _, _ := gtest.Fig2()
	ak := akindex.Build(g, 3).Freeze(g.Freeze())
	for _, expr := range []string{"/a", "/a/b", "/e/b/c"} {
		p := MustParse(expr)
		want := len(EvalGraph(p, g))
		if got := MustCompile(p).extentCount(ak); got != want {
			t.Errorf("%s: A(k) extent count = %d, want exact %d", expr, got, want)
		}
	}
}

func TestSelectivity(t *testing.T) {
	g, _, _, _ := gtest.Fig2()
	one := oneindex.Build(g).Freeze(g.Freeze())
	// /a/b matches dnodes 3, 4, 5: 3 of 9 nodes.
	got := Selectivity(MustParse("/a/b"), one)
	want := 3.0 / 9.0
	if got != want {
		t.Errorf("Selectivity = %v, want %v", got, want)
	}
	if s := Selectivity(MustParse("/nothing"), one); s != 0 {
		t.Errorf("empty selectivity = %v", s)
	}
}
