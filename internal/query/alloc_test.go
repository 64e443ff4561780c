package query

import (
	"math/rand"
	"testing"

	"structix/internal/akindex"
	"structix/internal/datagen"
	"structix/internal/extent"
	"structix/internal/graph"
	"structix/internal/gtest"
	"structix/internal/oneindex"
	"structix/internal/snap"
)

// Threading a context through the snapshot evaluators must not cost the
// nil-context path anything: the non-Ctx entry points must allocate
// exactly as much as the Ctx variants given a nil context. Both run on a
// caller-owned Scratch: a pooled one would make the counts random under
// -race, where sync.Pool drops items on purpose.
func TestSnapshotCtxNilAllocParity(t *testing.T) {
	g, _, _, _ := gtest.Fig2()
	one := oneindex.Build(g).Freeze(g.Freeze())
	ak := akindex.Build(g, 2).Freeze(g.Freeze())

	for _, expr := range []string{"/a/b", "//c", "//b//c"} {
		c := MustCompile(MustParse(expr))
		buf := make([]graph.NodeID, 0, g.NumNodes())
		var sc Scratch
		for _, s := range []*snap.Snapshot{one, ak} {
			plain := testing.AllocsPerRun(200, func() {
				buf = c.EvalSnapshotInto(buf, &sc, s)
			})
			withNil := testing.AllocsPerRun(200, func() {
				buf, _ = c.EvalSnapshotIntoCtx(nil, buf, &sc, s)
			})
			if withNil > plain {
				t.Errorf("%s (bounded %v): eval allocs/op: nil-ctx %.1f > plain %.1f", expr, s.Bounded(), withNil, plain)
			}
		}
	}
}

// A warm footprint evaluation makes exactly two allocations — the result
// and the footprint, both of which the cache retains: the bitmap the walk
// records expansions in lives in the Scratch, and the sweep that emits it
// sizes the footprint by popcount first.
func TestFootprintEvalTwoAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	one := oneindex.Build(gtest.RandomCyclic(rng, 200, 120))
	for _, codec := range []extent.Codec{extent.Dense, extent.Compressed} {
		one.SetSnapshotCodec(codec)
		snap := one.Freeze(one.Graph().Freeze())
		for _, expr := range []string{"/*/b", "//c", "//a//b"} {
			c := MustCompile(MustParse(expr))
			var sc Scratch
			if nodes, fp, _, _ := c.EvalSnapshotFootprint(nil, &sc, snap); len(nodes) == 0 || len(fp) == 0 {
				t.Fatalf("%s: empty result or footprint, the gate would be vacuous", expr)
			}
			if n := testing.AllocsPerRun(100, func() {
				c.EvalSnapshotFootprint(nil, &sc, snap)
			}); n != 2 {
				t.Errorf("%s (%s): warm footprint evaluation allocates %.1f/op, want 2", expr, codec, n)
			}
		}
	}
}

// BenchmarkEvalSnapshotFootprint is the cold-read kernel — automaton
// walk, extent union and footprint emission with a warm Scratch — per
// expression class of the repo benchmark's pools, reporting the expanded
// slots per query (fp-slots) and the time per expanded slot (ns/slot).
// The f1 cases run the `//` class on the read benchmark's xmark-f1
// dataset: freshly built (desc), where inode ids follow Build's
// breadth-first numbering, and after 2,000 random writes
// (desc-churned), where splits have appended ids out of walk order.
func BenchmarkEvalSnapshotFootprint(b *testing.B) {
	d8 := oneindex.Build(datagen.XMark(datagen.DefaultXMark(8, 1, 1)))
	d8snap := d8.Freeze(d8.Graph().Freeze())
	for _, bc := range []struct{ name, expr string }{
		{"child", "/site/regions/africa/item/name"},
		{"desc", "/site//item/name"},
		{"wild", "/site/regions/*/item/name"},
	} {
		b.Run(bc.name, func(b *testing.B) { benchFootprint(b, bc.expr, d8snap) })
	}
	f1 := oneindex.Build(datagen.XMark(datagen.XMarkFactor(1, 1, 1)))
	fresh := f1.Freeze(f1.Graph().Freeze())
	b.Run("f1-desc", func(b *testing.B) { benchFootprint(b, "/site//item/name", fresh) })
	ch := gtest.Churner{Rng: rand.New(rand.NewSource(1)), X: f1}
	for i := 0; i < 2000; i++ {
		if _, err := ch.Step(); err != nil {
			b.Fatal(err)
		}
	}
	churned := f1.Freeze(f1.Graph().Freeze())
	b.Run("f1-desc-churned", func(b *testing.B) { benchFootprint(b, "/site//item/name", churned) })
}

func benchFootprint(b *testing.B, expr string, s *snap.Snapshot) {
	c := MustCompile(MustParse(expr))
	var sc Scratch
	b.ReportAllocs()
	b.ResetTimer()
	slots := 0
	for i := 0; i < b.N; i++ {
		_, fp, _, err := c.EvalSnapshotFootprint(nil, &sc, s)
		if err != nil {
			b.Fatal(err)
		}
		slots = len(fp)
	}
	b.ReportMetric(float64(slots), "fp-slots")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*slots), "ns/slot")
}

// BenchmarkEvalSnapshotPath is the facade read path — EvalSnapshot(p, s)
// on a *Path, compile included, with a nil (pooled) Scratch — per
// expression class over Figure 2, xmark-d8 and xmark-f1. On Figure 2 the
// compile dominates: a caller repeating one expression compiles it once.
func BenchmarkEvalSnapshotPath(b *testing.B) {
	fig2, _, _, _ := gtest.Fig2()
	d8 := oneindex.Build(datagen.XMark(datagen.DefaultXMark(8, 1, 1)))
	f1 := oneindex.Build(datagen.XMark(datagen.XMarkFactor(1, 1, 1)))
	graphs := []struct {
		name string
		s    *snap.Snapshot
	}{
		{"fig2", oneindex.Build(fig2).Freeze(fig2.Freeze())},
		{"d8", d8.Freeze(d8.Graph().Freeze())},
		{"f1", f1.Freeze(f1.Graph().Freeze())},
	}
	for _, gc := range graphs {
		exprs := []struct{ name, expr string }{
			{"child", "/site/regions/africa/item/name"},
			{"desc", "/site//item/name"},
			{"wild", "/site/regions/*/item/name"},
		}
		if gc.name == "fig2" {
			exprs = []struct{ name, expr string }{{"child", "/a/b/c"}, {"desc", "//b//c"}, {"wild", "/*/b"}}
		}
		for _, ec := range exprs {
			p := MustParse(ec.expr)
			b.Run(gc.name+"/"+ec.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					EvalSnapshot(p, gc.s)
				}
			})
		}
	}
}
