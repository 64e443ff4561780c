package partition

import (
	"math/rand"
	"testing"
	"testing/quick"

	"structix/internal/graph"
)

// decodeRefineInput builds a small graph and an initial partition from
// fuzz bytes: data[0] sets the node count (1..24); each node then takes
// one byte, whose low bits pick its label (of 3) and whose high bits pick
// its init block within that label (of 3, so init refines ByLabel but is
// not it); byte pairs after that are edges, self-loops allowed, except
// that a pair whose first byte is 0xf0 or more deletes a node instead,
// leaving a dead slot.
func decodeRefineInput(data []byte) (*graph.Graph, *Partition) {
	g := graph.New()
	g.SetAllowSelfLoops(true)
	if len(data) == 0 {
		return g, ByLabel(g)
	}
	n := 1 + int(data[0])%24
	data = data[1:]
	labels := []string{"a", "b", "c"}
	sub := make([]int32, n)
	for i := 0; i < n; i++ {
		var b byte
		if i < len(data) {
			b = data[i]
		}
		g.AddNode(labels[b%3])
		sub[i] = int32(b>>2) % 3
	}
	if len(data) > n {
		data = data[n:]
	} else {
		data = nil
	}
	for ; len(data) >= 2; data = data[2:] {
		u, v := graph.NodeID(int(data[0])%n), graph.NodeID(int(data[1])%n)
		switch {
		case !g.Alive(u) || !g.Alive(v):
		case data[0] >= 0xf0:
			g.RemoveNode(u)
		default:
			_ = g.AddEdge(u, v, graph.IDRef)
		}
	}
	init := NewPartition(g.MaxNodeID())
	g.EachNode(func(v graph.NodeID) {
		init.SetBlock(v, 3*int32(g.Label(v))+sub[v])
	})
	init.SetNumBlocks(3 * g.Labels().Len())
	return g, init
}

// requireEngineMatchesReferences fails t unless CoarsestStable from init
// and from ByLabel equal NaiveCoarsestStable, and every KBisimLevels level
// equals the test-local one-level step on the level before, id for id.
func requireEngineMatchesReferences(t *testing.T, g *graph.Graph, init *Partition) {
	t.Helper()
	for _, start := range []*Partition{init, ByLabel(g)} {
		got, want := CoarsestStable(g, start), NaiveCoarsestStable(g, start)
		if !Equal(got, want) {
			t.Fatalf("CoarsestStable disagrees with NaiveCoarsestStable\n got: %s\nwant: %s",
				got.Fingerprint(), want.Fingerprint())
		}
	}
	levels := KBisimLevels(g, 4)
	for i := 1; i < len(levels); i++ {
		if want := refStep(g, levels[i-1]); !samePartition(levels[i], want) {
			t.Fatalf("A(%d) differs from the one-level step\n got: %s\nwant: %s",
				i, levels[i].Fingerprint(), want.Fingerprint())
		}
	}
}

// FuzzRefine holds the refinement engine to the references on small
// graphs with self-loops, dead slots and a non-label initial partition.
func FuzzRefine(f *testing.F) {
	f.Add([]byte{5, 0, 1, 2, 4, 8, 0, 1, 1, 2, 2, 3, 3, 4, 4, 0})
	f.Add([]byte{8, 0, 0, 1, 1, 2, 2, 0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 0, 0xf1, 0})
	f.Add([]byte{23, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 3, 5, 5, 3, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 128 {
			data = data[:128]
		}
		g, init := decodeRefineInput(data)
		requireEngineMatchesReferences(t, g, init)
	})
}

// Property: on random inputs decoded like FuzzRefine's, CoarsestStable is
// NaiveCoarsestStable block for block and every level is the one-level
// step.
func TestCoarsestStableMatchesNaiveRandom(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 1+rng.Intn(96))
		rng.Read(data)
		g, init := decodeRefineInput(data)
		requireEngineMatchesReferences(t, g, init)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
