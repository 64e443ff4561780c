package akindex

import (
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
