package oneindex

import (
	"errors"
	"fmt"
	"testing"

	"structix/internal/graph"
	"structix/internal/partition"
)

// fuzzGraph builds the small fixed host graph the fuzz targets mutate:
// a root plus 9 nodes over 3 labels, wired into a tree-ish base.
func fuzzGraph(t *testing.T) (*graph.Graph, []graph.NodeID) {
	t.Helper()
	g := graph.New()
	r := g.AddRoot()
	labels := []string{"a", "b", "c"}
	nodes := []graph.NodeID{r}
	for i := 0; i < 9; i++ {
		v := g.AddNode(labels[i%len(labels)])
		if err := g.AddEdge(nodes[i%len(nodes)], v, graph.Tree); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, v)
	}
	return g, nodes
}

// checkMinimum fails t unless the index is valid and minimal, and — on an
// acyclic graph — equal to the minimum 1-index (Theorem 1).
func checkMinimum(t *testing.T, x *Index, what string) {
	t.Helper()
	if err := x.Validate(); err != nil {
		t.Fatalf("%s: invalid index: %v", what, err)
	}
	if !x.IsMinimal() {
		t.Fatalf("%s: index not minimal", what)
	}
	if g := x.Graph(); g.IsAcyclic() {
		min := partition.CoarsestStable(g, partition.ByLabel(g))
		if !partition.Equal(x.ToPartition(), min) {
			t.Fatalf("%s: acyclic graph but maintained != minimum", what)
		}
	}
}

// FuzzMaintenance interprets a byte string as an update script over a
// small graph and checks the full index invariants after every operation:
// whatever the op sequence, the maintained index must stay a valid,
// minimal 1-index, equal to the minimum when the graph is acyclic.
func FuzzMaintenance(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5})
	f.Add([]byte{10, 200, 30, 40, 250, 60, 70, 80})
	f.Add([]byte{255, 254, 253, 0, 1, 255})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 64 {
			script = script[:64]
		}
		g, nodes := fuzzGraph(t)
		r := nodes[0]
		x := Build(g)
		for i := 0; i+2 < len(script); i += 3 {
			u := nodes[int(script[i])%len(nodes)]
			v := nodes[int(script[i+1])%len(nodes)]
			if u == v || v == r || !g.Alive(u) || !g.Alive(v) {
				continue
			}
			var err error
			switch script[i+2] % 3 {
			case 0:
				err = x.InsertEdge(u, v, graph.IDRef)
				if err == graph.ErrEdgeExists {
					err = nil
				}
			case 1:
				err = x.DeleteEdge(u, v)
				if err == graph.ErrNoEdge {
					err = nil
				}
			case 2:
				// Node ops: insert under u, sometimes delete v.
				if script[i+2]%2 == 0 {
					_, err = x.InsertNode(g.Labels().Intern("w"), u, graph.Tree)
				} else if v != r && g.InDegree(v) > 0 {
					err = x.DeleteNode(v)
				}
			}
			if err != nil {
				t.Fatalf("op %d: %v", i/3, err)
			}
			checkMinimum(t, x, fmt.Sprintf("op %d", i/3))
		}
	})
}

// FuzzBatchOps interprets bytes as a sequence of update *batches* pushed
// through ApplyBatch and checks the index after every batch: an accepted
// batch leaves a valid minimal 1-index, equal to the minimum on a DAG
// (Theorem 1). Batches deliberately include duplicate inserts, deletions of
// absent edges and insert-then-delete pairs within one batch; a rejected
// batch must leave the partition exactly as it was (atomic batch
// semantics).
func FuzzBatchOps(f *testing.F) {
	f.Add([]byte{4, 1, 5, 0, 2, 6, 1, 3, 7, 0, 4, 8, 1, 5, 2, 0})
	f.Add([]byte{2, 9, 3, 0, 9, 3, 1, 6, 2, 4, 0, 2, 4, 1})
	f.Add([]byte{5, 1, 2, 0, 2, 1, 1, 3, 4, 0, 4, 3, 1, 8, 7, 0, 7, 8, 1})
	f.Add([]byte{1, 1, 2, 0, 1, 1, 2, 0, 2, 3, 0, 3, 2, 1})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 64 {
			script = script[:64]
		}
		g, nodes := fuzzGraph(t)
		r := nodes[0]
		x := Build(g)
		for off := 0; off < len(script); {
			n := 1 + int(script[off])%6
			off++
			var ops []graph.EdgeOp
			for j := 0; j < n && off+2 < len(script); j++ {
				u := nodes[int(script[off])%len(nodes)]
				v := nodes[int(script[off+1])%len(nodes)]
				insert := script[off+2]%2 == 0
				off += 3
				if u == v || v == r {
					continue
				}
				if insert {
					ops = append(ops, graph.InsertOp(u, v, graph.IDRef))
				} else {
					ops = append(ops, graph.DeleteOp(u, v))
				}
			}
			if len(ops) == 0 {
				continue
			}
			before, edges := x.ToPartition(), g.NumEdges()
			err := x.ApplyBatch(ops)
			if err == nil {
				checkMinimum(t, x, "after batch")
				continue
			}
			if !errors.Is(err, graph.ErrEdgeExists) && !errors.Is(err, graph.ErrNoEdge) {
				t.Fatalf("batch: %v", err)
			}
			if !partition.Equal(before, x.ToPartition()) || g.NumEdges() != edges {
				t.Fatal("rejected batch changed the graph or the index")
			}
			if err := x.Validate(); err != nil {
				t.Fatalf("invalid index after rejected batch: %v", err)
			}
		}
	})
}
