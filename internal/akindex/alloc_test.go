package akindex

import (
	"math/bits"
	"math/rand"
	"testing"

	"structix/internal/datagen"
	"structix/internal/graph"
	"structix/internal/gtest"
)

// TestEdgeMaintenanceAllocs gates the steady-state allocation cost of warm
// single-edge maintenance across the whole A(0..k) family. With dense
// extents, sorted child slices, slice-pair iedge counters and epoch-stamped
// marks, an insert+delete pair of the same edge on a warm family allocates
// nothing at steady state; the ceiling leaves slack only for incidental
// scratch growth. (The map-based layout spent >250 allocs on the same pair
// — see EXPERIMENTS.md §"Flat memory layout".)
func TestEdgeMaintenanceAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc gate needs the full-size graph")
	}
	g := datagen.XMark(datagen.DefaultXMark(64, 0, 99))
	x := Build(g, 3)
	u, v, ok := gtest.RandomNonEdge(rand.New(rand.NewSource(7)), g)
	if !ok {
		t.Fatal("no insertable edge found")
	}
	pair := func() {
		if err := x.InsertEdge(u, v, graph.IDRef); err != nil {
			t.Fatal(err)
		}
		if err := x.DeleteEdge(u, v); err != nil {
			t.Fatal(err)
		}
	}
	pair() // reach scratch steady state
	if allocs := testing.AllocsPerRun(200, pair); allocs > 8 {
		t.Errorf("warm insert+delete pair allocates %.1f objects, ceiling 8", allocs)
	}
}

// TestSplitScratchGrowsWithHeadroom grows the inode arena one slot per
// round and counts reallocations of the split phase's per-inode scratch:
// with headroom they are O(log n), where an exact-size resize reallocates
// every round the arena grows.
func TestSplitScratchGrowsWithHeadroom(t *testing.T) {
	const rounds = 300
	var x *Index
	build := func(g *graph.Graph) gtest.Maintained { x = Build(g, 2); return x }
	changes, err := gtest.GrowOneByOne(rounds, build, func() int {
		if x.split == nil {
			return 0
		}
		return cap(x.split.owStamp) + cap(x.split.recOf)<<32
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(x.nodes) < rounds {
		t.Fatalf("arena grew to %d slots over %d rounds", len(x.nodes), rounds)
	}
	if limit := 2 * bits.Len(uint(len(x.nodes))); changes > limit {
		t.Errorf("split scratch reallocated %d times as the arena grew to %d slots, limit %d", changes, len(x.nodes), limit)
	}
}
