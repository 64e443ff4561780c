package experiments

import (
	"time"

	"structix/internal/baseline"
	"structix/internal/graph"
	"structix/internal/oneindex"
	"structix/internal/partition"
	"structix/internal/workload"
)

// SubgraphConfig parameterizes the Figure 12 subgraph-addition experiment.
type SubgraphConfig struct {
	Count       int    // subtrees to extract and re-add (paper: 500)
	Label       string // subtree root label (paper: auction subtrees)
	SampleEvery int    // quality sampling period in additions
	Seed        int64
}

// DefaultSubgraphConfig returns the paper's parameters.
func DefaultSubgraphConfig(seed int64) SubgraphConfig {
	return SubgraphConfig{Count: 500, Label: "open_auction", SampleEvery: 25, Seed: seed}
}

// SubgraphResult carries the three Figure 12 curves and per-addition times.
type SubgraphResult struct {
	Dataset   string
	Subgraphs int
	AvgNodes  float64

	SplitMerge     QualitySeries
	Propagate      QualitySeries
	Reconstruction QualitySeries

	SplitMergeTime     time.Duration // avg per subgraph
	PropagateTime      time.Duration
	ReconstructionTime time.Duration
}

// RunSubgraphAdditions implements §7.1's subgraph experiment: extract Count
// subtrees rooted at Label dnodes (tree edges only), delete them all, then
// re-add them one by one with (1) the split/merge algorithm of Figure 6,
// (2) the same algorithm with propagate instead of maintained insertion,
// and (3) split-only insertion followed by a full index reconstruction
// after every subgraph. The input graph is consumed.
func RunSubgraphAdditions(name string, g *graph.Graph, cfg SubgraphConfig) SubgraphResult {
	roots := workload.SubtreeRoots(g, cfg.Label, cfg.Count, cfg.Seed)
	// Extract-and-remove one subtree at a time so each extraction sees the
	// current graph; removal order = re-addition order, so every recorded
	// cross endpoint exists when its subgraph returns.
	sgs := make([]*graph.Subgraph, 0, len(roots))
	totalNodes := 0
	for _, r := range roots {
		sg := workload.ExtractAndRemove(g, r, true)
		totalNodes += sg.NumNodes()
		sgs = append(sgs, sg)
	}

	gSM := g
	gP := g.Clone()
	gR := g.Clone()
	sm := oneindex.Build(gSM)
	pr := oneindex.Build(gP)
	rc := oneindex.Build(gR)

	res := SubgraphResult{Dataset: name, Subgraphs: len(sgs)}
	if len(sgs) > 0 {
		res.AvgNodes = float64(totalNodes) / float64(len(sgs))
	}
	res.SplitMerge.Name = "split/merge"
	res.Propagate.Name = "propagate"
	res.Reconstruction.Name = "reconstruction"

	var smTime, pTime, rTime time.Duration
	sample := func(added int) {
		min := partition.CoarsestStable(gSM, partition.ByLabel(gSM)).NumBlocks()
		res.SplitMerge.Points = append(res.SplitMerge.Points,
			QualityPoint{Updates: added, Quality: quality(sm.Size(), min)})
		res.Propagate.Points = append(res.Propagate.Points,
			QualityPoint{Updates: added, Quality: quality(pr.Size(), min)})
		res.Reconstruction.Points = append(res.Reconstruction.Points,
			QualityPoint{Updates: added, Quality: quality(rc.Size(), min)})
	}
	sample(0)
	for i, sg := range sgs {
		start := time.Now()
		if _, err := sm.AddSubgraph(sg); err != nil {
			panic("experiments: " + err.Error())
		}
		smTime += time.Since(start)

		start = time.Now()
		if _, err := oneindex.SplitOnly(pr).AddSubgraph(sg); err != nil {
			panic("experiments: " + err.Error())
		}
		pTime += time.Since(start)

		start = time.Now()
		if _, err := oneindex.SplitOnly(rc).AddSubgraph(sg); err != nil {
			panic("experiments: " + err.Error())
		}
		*rc = *baseline.ReconstructOneIndex(rc)
		rTime += time.Since(start)

		if cfg.SampleEvery > 0 && (i+1)%cfg.SampleEvery == 0 {
			sample(i + 1)
		}
	}
	n := len(sgs)
	res.SplitMergeTime = perUpdate(smTime, n)
	res.PropagateTime = perUpdate(pTime, n)
	res.ReconstructionTime = perUpdate(rTime, n)
	return res
}
