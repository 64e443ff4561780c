package oneindex

import (
	"testing"

	"structix/internal/datagen"
	"structix/internal/graph"
	"structix/internal/partition"
	"structix/internal/workload"
)

// Theorem 1 at benchmark scale: thousands of updates on a ~4k-node acyclic
// XMark, exact equality with from-scratch construction at checkpoints.
// Skipped under -short.
func TestTheorem1AtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	g := datagen.XMark(datagen.DefaultXMark(64, 0, 99))
	ops := workload.MixedScript(g, 0.2, 400, 99)
	x := Build(g)
	for i, op := range ops {
		applyScaleOp(t, x, op)
		if (i+1)%100 == 0 {
			if !partition.Equal(x.ToPartition(), partition.CoarsestStable(g, partition.ByLabel(g))) {
				t.Fatalf("update %d: maintained != minimum on acyclic XMark", i+1)
			}
		}
	}
	if err := x.Validate(); err != nil {
		t.Fatal(err)
	}
}

// Lemma 3 at benchmark scale on the cyclic instance: validity + minimality
// + refinement-of-minimum at checkpoints.
func TestLemma3AtScaleCyclic(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	g := datagen.XMark(datagen.DefaultXMark(64, 1, 77))
	ops := workload.MixedScript(g, 0.2, 400, 77)
	x := Build(g)
	for i, op := range ops {
		applyScaleOp(t, x, op)
		if (i+1)%100 == 0 {
			if err := x.Validate(); err != nil {
				t.Fatalf("update %d: %v", i+1, err)
			}
			if !x.IsMinimal() {
				t.Fatalf("update %d: not minimal", i+1)
			}
			min := partition.CoarsestStable(g, partition.ByLabel(g))
			if !partition.IsRefinementOf(x.ToPartition(), min) {
				t.Fatalf("update %d: not a refinement of minimum", i+1)
			}
		}
	}
}

func applyScaleOp(t *testing.T, x *Index, op graph.EdgeOp) {
	t.Helper()
	var err error
	if op.Insert {
		err = x.InsertEdge(op.U, op.V, graph.IDRef)
	} else {
		err = x.DeleteEdge(op.U, op.V)
	}
	if err != nil {
		t.Fatal(err)
	}
}
