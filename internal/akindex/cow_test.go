package akindex

import (
	"fmt"
	"math/rand"
	"testing"

	"structix/internal/extent"
	"structix/internal/graph"
	"structix/internal/gtest"
)

// TestPatchedChainEqualsFreeze publishes by patch after every write of a
// random mix — edge batches, node scripts, subtree deletes and re-grafts —
// and compares the patched snapshot and its frozen graph with a fresh
// Freeze on every accessor of every slot. The graphs span several pages
// of both slot spaces and the writes grow both.
func TestPatchedChainEqualsFreeze(t *testing.T) {
	gens := map[string]func(*rand.Rand, int, int) *graph.Graph{"dag": gtest.RandomDAG, "cyclic": gtest.RandomCyclic}
	for name, gen := range gens {
		for _, codec := range []extent.Codec{extent.Dense, extent.Compressed} {
			t.Run(fmt.Sprintf("%s/%s", name, codec), func(t *testing.T) {
				rng := rand.New(rand.NewSource(11))
				g := gen(rng, 400, 150)
				// Bisimilar leaves: one extent big enough to block-encode.
				for i := 0; i < 48; i++ {
					if err := g.AddEdge(g.Root(), g.AddNode("leaf"), graph.Tree); err != nil {
						t.Fatal(err)
					}
				}
				x := Build(g, 2)
				x.SetSnapshotCodec(codec)
				snap := x.Freeze(g.Freeze())
				slots, nodes := snap.Slots(), snap.Data().MaxNodeID()
				c := gtest.Churner{Rng: rng, X: x}
				for step := 0; step < 120; step++ {
					what, err := c.Step()
					if err != nil {
						t.Fatalf("step %d (%s): %v", step, what, err)
					}
					snap = x.PatchSnapshot(snap, snap.Data().Rebuild(g, nil))
					if _, ok := snap.Changed(); !ok {
						t.Fatalf("step %d (%s): published by full freeze", step, what)
					}
					fresh := x.Freeze(g.Clone().Freeze())
					if d := gtest.SnapshotDiff[INodeID](snap, fresh); d != "" {
						t.Fatalf("step %d (%s): patched chain differs from a fresh freeze: %s", step, what, d)
					}
				}
				enc := 0
				for i := 0; i < snap.Slots(); i++ {
					if snap.ExtentView(INodeID(i)).IsCompressed() {
						enc++
					}
				}
				if (enc > 0) != (codec == extent.Compressed) {
					t.Fatalf("%d block-encoded extents under the %s codec", enc, codec)
				}
				if snap.Slots() <= slots || snap.Data().MaxNodeID() <= nodes {
					t.Fatalf("slot spaces did not grow: inodes %d->%d nodes %d->%d", slots, snap.Slots(), nodes, snap.Data().MaxNodeID())
				}
			})
		}
	}
}
