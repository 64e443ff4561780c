package oneindex

import (
	"math/rand"
	"testing"
	"testing/quick"

	"structix/internal/datagen"
	"structix/internal/graph"
	"structix/internal/gtest"
	"structix/internal/partition"
)

// Property: on acyclic graphs, insert followed by delete of the same edge
// restores the exact index partition (both operations land on the unique
// minimum).
func TestQuickInsertDeleteIdentityAcyclic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gtest.RandomDAG(rng, 30, 15)
		x := Build(g)
		before := x.ToPartition()
		nodes := g.Nodes()
		a := rng.Intn(len(nodes) - 1)
		b := a + 1 + rng.Intn(len(nodes)-a-1)
		u, v := nodes[a], nodes[b]
		if v == g.Root() || g.HasEdge(u, v) {
			return true
		}
		if x.InsertEdge(u, v, graph.IDRef) != nil {
			return false
		}
		if x.DeleteEdge(u, v) != nil {
			return false
		}
		return partition.Equal(before, x.ToPartition())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: the maintained index is always a *partition* (cover +
// disjoint), label-pure, and its iedge counts match the graph — even under
// cyclic churn. (Validate checks all of this.)
func TestQuickStructuralInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gtest.RandomCyclic(rng, 30, 25)
		x := Build(g)
		for i := 0; i < 25; i++ {
			u, v, ok := gtest.RandomNonEdge(rng, g)
			if !ok {
				continue
			}
			if x.InsertEdge(u, v, graph.IDRef) != nil {
				return false
			}
			if rng.Intn(2) == 0 {
				if x.DeleteEdge(u, v) != nil {
					return false
				}
			}
		}
		return x.Validate() == nil && x.IsMinimal()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: Size is monotone under the quality ordering — the split/merge
// index is never larger than the split-only index run on the same script.
func TestQuickMergeNeverLoses(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gtest.RandomCyclic(rng, 25, 20)
		g2 := g.Clone()
		a := Build(g)
		b := Build(g2)
		for i := 0; i < 20; i++ {
			u, v, ok := gtest.RandomNonEdge(rng, g)
			if !ok {
				continue
			}
			if a.InsertEdge(u, v, graph.IDRef) != nil {
				return false
			}
			if SplitOnly(b).InsertEdge(u, v, graph.IDRef) != nil {
				return false
			}
		}
		return a.Size() <= b.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// batchShape is one family of inputs for the batch properties: the small
// random graphs, or the same graphs grown by a hub region whose inode has
// over a thousand index successors (gtest.AddHub), so the merge search
// runs under parents of very unequal fan-out.
type batchShape struct {
	name  string
	gen   func(rng *rand.Rand) *graph.Graph
	count int
}

func batchShapes(base func(rng *rand.Rand) *graph.Graph, count int) []batchShape {
	return []batchShape{
		{"random", base, count},
		{"hub", func(rng *rand.Rand) *graph.Graph {
			g := base(rng)
			gtest.AddHub(rng, g, 2048)
			return g
		}, 10},
	}
}

// Property: on acyclic graphs a batch is equivalent to applying the same
// operations one at a time — both land on the unique minimum 1-index
// (Theorem 1), so the partitions match exactly (up to block relabeling),
// and both equal a from-scratch Build.
func TestQuickBatchEqualsSequentialDAG(t *testing.T) {
	dag := func(rng *rand.Rand) *graph.Graph { return gtest.RandomDAG(rng, 30, 10) }
	for _, shape := range batchShapes(dag, 50) {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			g := shape.gen(rng)
			gb := g.Clone()
			seq := Build(g)
			bat := Build(gb)
			sim := g.Clone()
			ops := gtest.RandomOpBatch(rng, sim, 20, true)
			for _, op := range ops {
				if op.Insert {
					if seq.InsertEdge(op.U, op.V, op.Kind) != nil {
						return false
					}
				} else if seq.DeleteEdge(op.U, op.V) != nil {
					return false
				}
			}
			if bat.ApplyBatch(ops) != nil {
				return false
			}
			return bat.Validate() == nil && bat.IsMinimal() &&
				partition.Equal(seq.ToPartition(), bat.ToPartition()) &&
				partition.Equal(rebuild(bat), bat.ToPartition())
		}
		if err := quick.Check(f, &quick.Config{MaxCount: shape.count}); err != nil {
			t.Errorf("%s: %v", shape.name, err)
		}
	}
}

// Property: under cyclic churn, repeated batches keep the index valid and
// minimal. (Minimal 1-indexes are not unique on cyclic data — Figure 4 —
// so no exact comparison with the sequential history is possible; validity
// and minimality are the full §5 guarantee.)
func TestQuickBatchInvariantsCyclic(t *testing.T) {
	cyclic := func(rng *rand.Rand) *graph.Graph { return gtest.RandomCyclic(rng, 30, 20) }
	for _, shape := range batchShapes(cyclic, 30) {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			g := shape.gen(rng)
			x := Build(g)
			sim := g.Clone()
			for round := 0; round < 4; round++ {
				ops := gtest.RandomOpBatch(rng, sim, 10, false)
				if x.ApplyBatch(ops) != nil {
					return false
				}
				if x.Validate() != nil || !x.IsMinimal() {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: shape.count}); err != nil {
			t.Errorf("%s: %v", shape.name, err)
		}
	}
}

// A gtest.Churner stream — edge batches, node scripts, subtree cuts and
// re-grafts — over a small cyclic XMark keeps the index valid and minimal
// after every step. XMark's hubs (open_auctions, the watch inodes) are
// what the merge search's choice of parent is about.
func TestChurnXMarkStaysMinimal(t *testing.T) {
	x := Build(datagen.XMark(datagen.DefaultXMark(64, 1, 5)))
	ch := gtest.Churner{Rng: rand.New(rand.NewSource(5)), X: x}
	for i := 0; i < 500; i++ {
		kind, err := ch.Step()
		if err != nil {
			t.Fatalf("step %d (%s): %v", i, kind, err)
		}
		if err := x.Validate(); err != nil {
			t.Fatalf("step %d (%s): %v", i, kind, err)
		}
		if !x.IsMinimal() {
			t.Fatalf("step %d (%s): not minimal", i, kind)
		}
	}
}

// Property: extents of the maintained index biject with ToPartition blocks.
func TestQuickPartitionRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gtest.RandomCyclic(rng, 25, 15)
		x := Build(g)
		p := x.ToPartition()
		if p.NumBlocks() != x.Size() {
			return false
		}
		y, err := FromPartition(g, p)
		return err == nil && partition.Equal(y.ToPartition(), p) && y.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
