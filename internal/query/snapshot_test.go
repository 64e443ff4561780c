package query

import (
	"math/rand"
	"testing"

	"structix/internal/akindex"
	"structix/internal/gtest"
	"structix/internal/oneindex"
)

// Snapshot evaluation must be indistinguishable from live-index
// evaluation taken at the same instant, across randomized graphs,
// expressions, and maintenance batches with incrementally patched
// snapshots.
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
				if got, want := EvalSnapshot(p, oneSnap), EvalOneIndex(p, one); !equalIDs(got, want) {
					t.Fatalf("seed %d round %d %q: 1-index snapshot %v != live %v", seed, round, p, got, want)
				}
				if got, want := CountSnapshot(p, oneSnap), CountOneIndex(p, one); got != want {
					t.Fatalf("seed %d round %d %q: 1-index snapshot count %d != live %d", seed, round, p, got, want)
				}
				if got, want := EvalSnapshot(p, akSnap), EvalAkValidated(p, ak); !equalIDs(got, want) {
					t.Fatalf("seed %d round %d %q: A(k) snapshot %v != live %v", seed, round, p, got, want)
				}
				// Exact on either family, where the live CountAk is an upper bound.
				if got, want := CountSnapshot(p, akSnap), len(EvalAkValidated(p, ak)); got != want {
					t.Fatalf("seed %d round %d %q: A(k) snapshot count %d != %d validated results", seed, round, p, got, want)
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
	one := oneindex.Build(g)
	ak := akindex.Build(g.Clone(), 2)
	oneSnap := one.Freeze(one.Graph().Freeze())
	akSnap := ak.Freeze(ak.Graph().Freeze())
	for _, expr := range []string{
		"/site/people/person[name='Alice']",
		"//person[name]",
		"//person[watches/watch]/name",
		"//auction[name='lot']",
		"//person[name='Nobody']",
	} {
		p := MustParse(expr)
		if got, want := EvalSnapshot(p, oneSnap), EvalOneIndex(p, one); !equalIDs(got, want) {
			t.Errorf("%q: 1-index snapshot %v != live %v", expr, got, want)
		}
		if got, want := EvalSnapshot(p, akSnap), EvalAkValidated(p, ak); !equalIDs(got, want) {
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
