package akindex

import (
	"math/rand"
	"testing"
	"testing/quick"

	"structix/internal/graph"
	"structix/internal/gtest"
	"structix/internal/partition"
)

// Property: level sizes are monotone non-decreasing in the level (finer
// partitions have at least as many blocks), at all times.
func TestQuickLevelMonotonicity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gtest.RandomCyclic(rng, 30, 20)
		x := Build(g, 4)
		for i := 0; i < 15; i++ {
			u, v, ok := gtest.RandomNonEdge(rng, g)
			if !ok {
				continue
			}
			if x.InsertEdge(u, v, graph.IDRef) != nil {
				return false
			}
			for l := 1; l <= 4; l++ {
				if x.SizeAt(l) < x.SizeAt(l-1) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: insert∘delete of the same edge restores every level partition
// exactly (Theorem 2 gives uniqueness on any graph, so this holds even
// with cycles — unlike the 1-index case).
func TestQuickInsertDeleteIdentityCyclic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gtest.RandomCyclic(rng, 25, 20)
		x := Build(g, 3)
		before := make([]*partition.Partition, 4)
		for l := 0; l <= 3; l++ {
			before[l] = x.ToPartition(l)
		}
		u, v, ok := gtest.RandomNonEdge(rng, g)
		if !ok {
			return true
		}
		if x.InsertEdge(u, v, graph.IDRef) != nil {
			return false
		}
		if x.DeleteEdge(u, v) != nil {
			return false
		}
		for l := 0; l <= 3; l++ {
			if !partition.Equal(before[l], x.ToPartition(l)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: a batch is equivalent to applying the same operations one at a
// time. Theorem 2 gives uniqueness of the minimum family on *any* graph —
// cyclic included — so every level partition must match exactly (up to
// block relabeling), and the batched index must be valid and minimum.
func TestQuickBatchEqualsSequentialAllLevels(t *testing.T) {
	const k = 3
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gtest.RandomCyclic(rng, 25, 15)
		gb := g.Clone()
		seq := Build(g, k)
		bat := Build(gb, k)
		sim := g.Clone()
		for round := 0; round < 3; round++ {
			ops := gtest.RandomOpBatch(rng, sim, 12, false)
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
			if bat.Validate() != nil || !bat.IsMinimum() {
				return false
			}
			for l := 0; l <= k; l++ {
				if !partition.Equal(seq.ToPartition(l), bat.ToPartition(l)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: the refinement tree is a forest of height exactly k whose leaf
// extents partition the live nodes; FromLevels ∘ ToPartition is identity.
func TestQuickFromLevelsRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gtest.RandomCyclic(rng, 25, 15)
		x := Build(g, 3)
		levels := make([]*partition.Partition, 4)
		for l := 0; l <= 3; l++ {
			levels[l] = x.ToPartition(l)
		}
		y := FromLevels(g, levels)
		if y.Validate() != nil {
			return false
		}
		for l := 0; l <= 3; l++ {
			if !partition.Equal(y.ToPartition(l), levels[l]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
