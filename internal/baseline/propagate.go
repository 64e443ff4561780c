// Package baseline implements the competing maintenance algorithms the
// paper evaluates against (§7):
//
//   - the *propagate* algorithm of Kaushik et al. (VLDB 2002) for the
//     1-index — the split phase without any merging — optionally paired
//     with their index reconstruction and the 5%-growth trigger heuristic;
//   - the index reconstruction itself: run the construction algorithm on
//     the index graph (treating it as a data graph) and "blow up" each
//     resulting node into the union of its old extents;
//   - the *simple* A(k) maintenance sketched at the end of Qun et al.
//     (SIGMOD 2003), with its minor mistake fixed as in §7.2: BFS to depth
//     k−1 from the updated sink, then re-partition the affected inodes by
//     k-bisimulation signatures computed from the data graph by definition
//     (deliberately exponential in k, as the paper reports).
package baseline

import (
	"structix/internal/graph"
	"structix/internal/oneindex"
	"structix/internal/partition"
)

// DefaultReconstructThreshold is the paper's reconstruction trigger: rebuild
// whenever the index is more than 5% larger than right after the last
// reconstruction (§7.1).
const DefaultReconstructThreshold = 0.05

// Propagate maintains a 1-index with the split-only propagate algorithm,
// optionally reconstructing when the index exceeds the growth threshold.
type Propagate struct {
	X *oneindex.Index

	// Threshold triggers reconstruction when Size exceeds
	// (1+Threshold)×(size after last reconstruction). Zero disables
	// reconstruction.
	Threshold float64

	// Reconstructions counts reconstructions performed.
	Reconstructions int

	lastSize int
}

// NewPropagate wraps a freshly built index in a propagate maintainer.
func NewPropagate(x *oneindex.Index, threshold float64) *Propagate {
	return &Propagate{X: x, Threshold: threshold, lastSize: x.Size()}
}

// InsertEdge inserts a dedge with the propagate algorithm.
func (p *Propagate) InsertEdge(u, v graph.NodeID, kind graph.EdgeKind) error {
	if err := oneindex.SplitOnly(p.X).InsertEdge(u, v, kind); err != nil {
		return err
	}
	p.maybeReconstruct()
	return nil
}

// DeleteEdge deletes a dedge with the propagate algorithm.
func (p *Propagate) DeleteEdge(u, v graph.NodeID) error {
	if err := oneindex.SplitOnly(p.X).DeleteEdge(u, v); err != nil {
		return err
	}
	p.maybeReconstruct()
	return nil
}

// AddSubgraph adds a subgraph, inserting its cross edges with propagate
// (the second alternative of the Figure 12 experiment).
func (p *Propagate) AddSubgraph(sg *graph.Subgraph) ([]graph.NodeID, error) {
	ids, err := oneindex.SplitOnly(p.X).AddSubgraph(sg)
	if err != nil {
		return nil, err
	}
	p.maybeReconstruct()
	return ids, nil
}

// DeleteSubgraph removes a subtree. (Island removal needs no merge phase,
// so the maintained implementation is shared.)
func (p *Propagate) DeleteSubgraph(root graph.NodeID, skipIDRef bool) (*graph.Subgraph, error) {
	sg, err := p.X.DeleteSubgraph(root, skipIDRef)
	if err != nil {
		return nil, err
	}
	p.maybeReconstruct()
	return sg, nil
}

func (p *Propagate) maybeReconstruct() {
	if p.Threshold <= 0 {
		return
	}
	if float64(p.X.Size()) > (1+p.Threshold)*float64(p.lastSize) {
		p.Reconstruct()
	}
}

// Reconstruct rebuilds the index with the index-graph reconstruction of
// Kaushik et al. and resets the growth baseline.
func (p *Propagate) Reconstruct() {
	p.X = ReconstructOneIndex(p.X)
	p.lastSize = p.X.Size()
	p.Reconstructions++
}

// ReconstructOneIndex implements the "index reconstruction" idea of [8]:
// run the 1-index construction algorithm on the index graph itself (one
// node per inode, labels preserved, iedges as edges), then blow each
// resulting node up into the union of the extents of the inodes it groups.
// Starting from any valid 1-index this yields the minimum 1-index of the
// underlying data graph, at the cost of a full construction pass over the
// index graph.
func ReconstructOneIndex(x *oneindex.Index) *oneindex.Index {
	g := x.Graph()
	ig := graph.NewShared(g.Labels())
	ig.SetAllowSelfLoops(true) // an inode may point to itself on cyclic data
	toIG := make(map[oneindex.INodeID]graph.NodeID, x.Size())
	x.EachINode(func(i oneindex.INodeID) {
		toIG[i] = ig.AddNodeL(x.Label(i))
	})
	x.EachINode(func(i oneindex.INodeID) {
		for _, j := range x.ISucc(i) {
			if err := ig.AddEdge(toIG[i], toIG[j], graph.Tree); err != nil {
				panic("baseline: duplicate iedge: " + err.Error())
			}
		}
	})
	igPart := partition.CoarsestStable(ig, partition.ByLabel(ig))
	// Blow up: a dnode's block is the block of its inode's index-graph node.
	dp := partition.NewPartition(g.MaxNodeID())
	g.EachNode(func(v graph.NodeID) {
		dp.SetBlock(v, igPart.Block(toIG[x.INodeOf(v)]))
	})
	dp.SetNumBlocks(igPart.NumBlocks())
	y, err := oneindex.FromPartition(g, dp)
	if err != nil {
		panic("baseline: reconstruction of a valid 1-index: " + err.Error())
	}
	return y
}
