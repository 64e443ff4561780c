package partition

import (
	"testing"

	"structix/internal/datagen"
)

// TestKBisimLevelsAllocsPerNode gates the per-node allocation cost of the
// refinement engine. The engine keeps its adjacency, block ranges and
// arena-backed signature table in a pooled refiner, so a full KBisimLevels
// run allocates the result partitions and a bounded amount of scratch
// growth — far below one object per node. (The string-keyed signature
// scheme allocated one interned key per node per level: ≥ k·n objects on
// the same input.)
func TestKBisimLevelsAllocsPerNode(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc gate needs the full-size graph")
	}
	g := datagen.XMark(datagen.DefaultXMark(64, 0, 99))
	const k = 3
	KBisimLevels(g, k) // reach pool steady state
	allocs := testing.AllocsPerRun(10, func() { KBisimLevels(g, k) })
	n := float64(g.NumNodes())
	if perNode := allocs / n; perNode > 0.25 {
		t.Errorf("KBisimLevels allocates %.0f objects (%.3f per node) on %d nodes, ceiling 0.25/node",
			allocs, perNode, g.NumNodes())
	}
}
