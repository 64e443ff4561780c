package oneindex

import (
	"strconv"
	"testing"

	"structix/internal/datagen"
	"structix/internal/graph"
	"structix/internal/gtest"
)

// A frontier inode below a hub and below a small parent finds its merge
// partner under the small parent: the probe count is bounded by the small
// parent's fan-out, not the hub's. Checked for the deferred batch pass and
// the per-edge merge phase alike; Stats.MergeProbes is deterministic, so
// the complexity is gated without any timing.
func TestMergeSearchAvoidsHubParent(t *testing.T) {
	const fan = 10000
	for _, batch := range []bool{true, false} {
		g := graph.New()
		r := g.AddRoot()
		hub := g.AddNode("hub")
		small := g.AddNode("small")
		mustE(t, g, r, hub)
		mustE(t, g, r, small)
		for i := 0; i < fan; i++ {
			mustE(t, g, hub, g.AddNode("l"+strconv.Itoa(i)))
		}
		v, w := g.AddNode("x"), g.AddNode("x")
		mustE(t, g, hub, v)
		mustE(t, g, small, v)
		mustE(t, g, hub, w)
		mustE(t, g, small, g.AddNode("y"))
		x := Build(g)

		ih, is := x.INodeOf(hub), x.INodeOf(small)
		if ih > is {
			t.Fatalf("hub inode %d numbered after the small parent %d: the smallest-id parent would not be the hub", ih, is)
		}
		if n := x.inodes[ih].succ.Len(); n < fan {
			t.Fatalf("hub inode has %d index successors, want ≥ %d", n, fan)
		}
		before := x.Stats.MergeProbes
		// small→w gives w the index parents {hub, small}: v's set.
		var err error
		if batch {
			err = x.ApplyBatch([]graph.EdgeOp{graph.InsertOp(small, w, graph.IDRef)})
		} else {
			err = x.InsertEdge(small, w, graph.IDRef)
		}
		if err != nil {
			t.Fatal(err)
		}
		if x.INodeOf(v) != x.INodeOf(w) {
			t.Fatalf("batch=%v: v and w share label and index parents but did not merge", batch)
		}
		mustValid(t, x)
		if !x.IsMinimal() {
			t.Fatalf("batch=%v: not minimal", batch)
		}
		smallFan := 3 // v, w and the y leaf once the edge is in
		if probes := x.Stats.MergeProbes - before; probes > 2*smallFan {
			t.Errorf("batch=%v: merge search probed %d inodes, want ≤ %d (2× the small parent's fan-out)", batch, probes, 2*smallFan)
		}
	}
}

// BenchmarkApplyBatchXMark is the maintenance kernel under the serving
// benchmark's write traffic: 8-op batches of person→open_auction IDREF
// edges absent from the generated XMark (cyclicity 1), every batch
// inserted and then every batch deleted, after one warm pass. It reports
// the time per batch (us/batch) and the merge search's candidate inodes
// per batch (probes/batch), on xmark-f1 and, unless -short, xmark-f2.
func BenchmarkApplyBatchXMark(b *testing.B) {
	for _, f := range []int{1, 2} {
		if f > 1 && testing.Short() {
			continue
		}
		g := datagen.XMark(datagen.XMarkFactor(f, 1, 1))
		x := Build(g)
		seq := gtest.XMarkEdgeBatches(g, 16, 8, 1)
		run := func(b *testing.B) {
			for _, ops := range seq {
				if err := x.ApplyBatch(ops); err != nil {
					b.Fatal(err)
				}
			}
		}
		run(b)
		b.Run("f"+strconv.Itoa(f), func(b *testing.B) {
			probes := x.Stats.MergeProbes
			for i := 0; i < b.N; i++ {
				run(b)
			}
			batches := float64(b.N * len(seq))
			b.ReportMetric(float64(b.Elapsed().Microseconds())/batches, "us/batch")
			b.ReportMetric(float64(x.Stats.MergeProbes-probes)/batches, "probes/batch")
		})
	}
}
