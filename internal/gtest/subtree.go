package gtest

import (
	"fmt"
	"math/rand"
	"slices"

	"structix/internal/graph"
)

// SubtreeWriter is the write surface SubtreeStream drives: edge batches,
// single edge updates and subtree grafts and cuts.
type SubtreeWriter interface {
	Graph() *graph.Graph
	ApplyBatch(ops []graph.EdgeOp) error
	InsertEdge(u, v graph.NodeID, kind graph.EdgeKind) error
	DeleteEdge(u, v graph.NodeID) error
	AddSubgraph(sg *graph.Subgraph) ([]graph.NodeID, error)
	DeleteSubgraph(root graph.NodeID, skipIDRef bool) (*graph.Subgraph, error)
}

// SubtreeStream drives steps random writes through x and calls after once
// each has returned: an edge batch, one edge insertion or deletion, the cut
// of a subtree that does not reach the root (tree edges only, or IDREF
// edges too), or the re-graft of a subtree cut earlier, its cross edges to
// nodes that died since dropped. The draws depend on the graph alone, never
// on the index, so every implementation of the maintenance entry points
// sees the same stream. It stops at the first failing write.
func SubtreeStream(rng *rand.Rand, x SubtreeWriter, steps int, after func()) error {
	g := x.Graph()
	var cut []*graph.Subgraph
	for step := 0; step < steps; step++ {
		nodes := g.Nodes()
		var err error
		switch r := rng.Intn(10); {
		case r < 3:
			err = x.ApplyBatch(RandomOpBatch(rng, g.Clone(), 1+rng.Intn(6), false))
		case r < 4:
			if u, v, ok := RandomNonEdge(rng, g); ok {
				err = x.InsertEdge(u, v, graph.IDRef)
			}
		case r < 5:
			v := nodes[rng.Intn(len(nodes))]
			if preds := g.Pred(v); len(preds) > 0 {
				err = x.DeleteEdge(preds[rng.Intn(len(preds))], v)
			}
		case r < 7 || len(cut) == 0:
			v := nodes[rng.Intn(len(nodes))]
			skip := rng.Intn(3) != 0
			if v == g.Root() {
				break
			}
			if m := g.Reachable(v, skip); len(m) > len(nodes)/4 || slices.Contains(m, g.Root()) {
				break
			}
			var sg *graph.Subgraph
			if sg, err = x.DeleteSubgraph(v, skip); err == nil {
				cut = append(cut, sg)
			}
		default:
			i := rng.Intn(len(cut))
			sg := cut[i]
			cut = slices.Delete(cut, i, i+1)
			sg.CrossIn = slices.DeleteFunc(sg.CrossIn, func(ce graph.CrossEdge) bool { return !g.Alive(ce.Outside) })
			sg.CrossOut = slices.DeleteFunc(sg.CrossOut, func(ce graph.CrossEdge) bool { return !g.Alive(ce.Outside) })
			_, err = x.AddSubgraph(sg)
		}
		if err != nil {
			return fmt.Errorf("step %d: %w", step, err)
		}
		after()
	}
	return nil
}
