package gtest

import (
	"math/rand"
	"testing"

	"structix/internal/graph"
)

// Every class of op RandomOpBatch promises is drawn somewhere over a fixed
// seed set, and every batch is valid against the graph it was drawn for.
func TestRandomOpBatchDrawsEveryClass(t *testing.T) {
	for _, forwardOnly := range []bool{false, true} {
		seen := map[string]int{}
		for seed := int64(0); seed < 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			g := RandomDAG(rng, 25, 15)
			const n = 12
			ops := RandomOpBatch(rng, g.Clone(), n, forwardOnly)
			if len(ops) > n {
				t.Fatalf("seed %d: %d ops, asked for at most %d", seed, len(ops), n)
			}
			if err := g.ValidateOps(ops); err != nil {
				t.Fatalf("seed %d forwardOnly=%v: invalid batch: %v", seed, forwardOnly, err)
			}
			inserted := map[[2]graph.NodeID]bool{}
			for i, op := range ops {
				e := [2]graph.NodeID{op.U, op.V}
				switch {
				case op.Insert && op.V == g.Root():
					seen["root in-edge"]++
				case op.Insert:
					seen["insert"]++
				case inserted[e]:
					seen["delete own insert"]++
				case reinserted(ops[i+1:], e):
					seen["delete pre-existing, re-insert"]++
				}
				if op.Insert {
					inserted[e] = true
				}
				if forwardOnly && op.Insert && op.U > op.V {
					t.Fatalf("seed %d: forwardOnly batch inserts %d->%d", seed, op.U, op.V)
				}
			}
		}
		want := []string{"insert", "delete own insert", "delete pre-existing, re-insert"}
		if !forwardOnly {
			want = append(want, "root in-edge")
		} else if seen["root in-edge"] > 0 {
			t.Errorf("forwardOnly batches drew %d root in-edges", seen["root in-edge"])
		}
		for _, class := range want {
			if seen[class] == 0 {
				t.Errorf("forwardOnly=%v: no %q op over 20 seeds (drawn: %v)", forwardOnly, class, seen)
			}
		}
	}
}

func reinserted(rest []graph.EdgeOp, e [2]graph.NodeID) bool {
	for _, op := range rest {
		if op.Insert && op.U == e[0] && op.V == e[1] {
			return true
		}
	}
	return false
}
