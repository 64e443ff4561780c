package query

import (
	"math/rand"
	"slices"
	"testing"

	"structix/internal/akindex"
	"structix/internal/extent"
	"structix/internal/graph"
	"structix/internal/gtest"
	"structix/internal/oneindex"
)

// The extent codec is a storage choice, never a semantic one: every
// evaluation strategy must return bit-identical results over a Compressed
// snapshot and a Dense one of the same index state, both equal to the
// interpreter over the frozen graph — eval and count, on a fresh and a
// reused Scratch, on full freezes and on incrementally patched snapshots,
// across randomized graphs and maintenance batches. Run under -race this
// also exercises concurrent-safety of the shared encodings.
func TestSnapshotCodecEquivalence(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := gtest.RandomCyclic(rng, 120, 80)
		one := oneindex.Build(g)
		ak := akindex.Build(g.Clone(), 1+int(seed%3))

		// Separate index instances per codec so dirty tracking and
		// patching stay codec-pure (a codec switch forces a full freeze).
		oneC := oneindex.Build(g.Clone())
		oneC.SetSnapshotCodec(extent.Compressed)
		akC := akindex.Build(g.Clone(), ak.K())
		akC.SetSnapshotCodec(extent.Compressed)

		oneSnap := one.Freeze(one.Graph().Freeze())
		oneSnapC := oneC.Freeze(oneC.Graph().Freeze())
		akSnap := ak.Freeze(ak.Graph().Freeze())
		akSnapC := akC.Freeze(akC.Graph().Freeze())

		check := func(round int) {
			var sc, scC Scratch
			var buf, bufC []graph.NodeID
			for q := 0; q < 15; q++ {
				expr := randomExpr(rng)
				p := MustParse(expr)
				if got, want := evalOn(p, oneSnapC), EvalGraph(p, oneSnap.Data()); !equalIDs(got, want) {
					t.Fatalf("seed %d round %d %q: 1-index: compressed %v != graph %v", seed, round, expr, got, want)
				}
				if got, want := evalOn(p, akSnapC), EvalGraph(p, akSnap.Data()); !equalIDs(got, want) {
					t.Fatalf("seed %d round %d %q: A(k): compressed %v != graph %v", seed, round, expr, got, want)
				}
				if got, want := countOn(p, oneSnapC), countOn(p, oneSnap); got != want {
					t.Fatalf("seed %d round %d %q: 1-index count: compressed %d != dense %d", seed, round, expr, got, want)
				}
				if got, want := countOn(p, akSnapC), countOn(p, akSnap); got != want {
					t.Fatalf("seed %d round %d %q: A(k) count: compressed %d != dense %d", seed, round, expr, got, want)
				}
				cq := MustCompile(p)
				buf, _ = cq.Eval(nil, buf, &sc, oneSnap)
				bufC, _ = cq.Eval(nil, bufC, &scC, oneSnapC)
				if !slices.Equal(buf, bufC) {
					t.Fatalf("seed %d round %d %q: 1-index compiled: compressed %v != dense %v", seed, round, expr, bufC, buf)
				}
				buf, _ = cq.Eval(nil, buf, &sc, akSnap)
				bufC, _ = cq.Eval(nil, bufC, &scC, akSnapC)
				if !slices.Equal(buf, bufC) {
					t.Fatalf("seed %d round %d %q: A(k) compiled: compressed %v != dense %v", seed, round, expr, bufC, buf)
				}
			}
		}
		check(-1)

		// Maintenance rounds: both codec twins apply the same batches, the
		// dense side patches incrementally, and after the first round the
		// compressed side patches incrementally too.
		simOne := one.Graph().Clone()
		simAk := ak.Graph().Clone()
		for round := 0; round < 3; round++ {
			opsOne := gtest.RandomOpBatch(rng, simOne, 10, false)
			opsAk := gtest.RandomOpBatch(rng, simAk, 10, false)
			for _, x := range []*oneindex.Index{one, oneC} {
				if err := x.ApplyBatch(opsOne); err != nil {
					t.Fatal(err)
				}
			}
			for _, x := range []*akindex.Index{ak, akC} {
				if err := x.ApplyBatch(opsAk); err != nil {
					t.Fatal(err)
				}
			}
			oneSnap = one.PatchSnapshot(oneSnap, one.Graph().Freeze())
			oneSnapC = oneC.PatchSnapshot(oneSnapC, oneC.Graph().Freeze())
			akSnap = ak.PatchSnapshot(akSnap, ak.Graph().Freeze())
			akSnapC = akC.PatchSnapshot(akSnapC, akC.Graph().Freeze())
			check(round)
		}
	}
}

// Warm compiled evaluation over a Compressed snapshot must stay
// allocation-free: the block cursors and k-way merge state live in the
// reusable Scratch, so decoding compressed extents straight into a warm
// result buffer costs zero allocations. A(k) expressions that need
// post-validation allocate in the validator under every codec, so those
// are gated at parity with a dense snapshot of the same index state
// instead — the codec itself may not add a single allocation.
func TestCompiledCompressedEvalAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := gtest.RandomDAG(rng, 400, 250)
	one := oneindex.Build(g)
	one.SetSnapshotCodec(extent.Compressed)
	oneSnap := one.Freeze(one.Graph().Freeze())
	ak := akindex.Build(g.Clone(), 2)
	akDense := ak.Freeze(ak.Graph().Freeze())
	ak.SetSnapshotCodec(extent.Compressed)
	akSnap := ak.Freeze(ak.Graph().Freeze())

	var sc Scratch
	buf := make([]graph.NodeID, 0, g.NumNodes())
	for _, expr := range []string{"/a/b", "//c", "//b//c", "//*"} {
		cq := MustCompile(MustParse(expr))
		buf, _ = cq.Eval(nil, buf, &sc, oneSnap) // warm scratch and buffer
		if allocs := testing.AllocsPerRun(100, func() {
			buf, _ = cq.Eval(nil, buf, &sc, oneSnap)
		}); allocs > 0 {
			t.Errorf("%s: compiled 1-index eval over compressed snapshot: %.1f allocs/op, want 0", expr, allocs)
		}
		buf, _ = cq.Eval(nil, buf, &sc, akDense)
		dense := testing.AllocsPerRun(100, func() {
			buf, _ = cq.Eval(nil, buf, &sc, akDense)
		})
		buf, _ = cq.Eval(nil, buf, &sc, akSnap)
		compressed := testing.AllocsPerRun(100, func() {
			buf, _ = cq.Eval(nil, buf, &sc, akSnap)
		})
		if compressed > dense {
			t.Errorf("%s: compiled A(k) eval allocs/op: compressed %.1f > dense %.1f", expr, compressed, dense)
		}
		if !NeedsValidation(cq.skel, akSnap.K()) && compressed > 0 {
			t.Errorf("%s: compiled A(k) eval over compressed snapshot: %.1f allocs/op, want 0", expr, compressed)
		}
	}
}
