package experiments

import (
	"time"

	"structix/internal/baseline"
	"structix/internal/graph"
	"structix/internal/oneindex"
	"structix/internal/partition"
	"structix/internal/workload"
)

// MixedConfig parameterizes the mixed insert/delete experiment of
// Figures 9-11.
type MixedConfig struct {
	Pairs       int     // insert/delete pairs (paper: 5000)
	RemoveFrac  float64 // IDREF fraction moved to the insertion pool (paper: 0.2)
	SampleEvery int     // quality sampling period in updates
	Threshold   float64 // reconstruction trigger for both algorithms (paper: 0.05)
	Seed        int64
}

// DefaultMixedConfig returns the paper's §7.1 parameters.
func DefaultMixedConfig(seed int64) MixedConfig {
	return MixedConfig{
		Pairs:       5000,
		RemoveFrac:  0.2,
		SampleEvery: 500,
		Threshold:   baseline.DefaultReconstructThreshold,
		Seed:        seed,
	}
}

// MixedResult carries one dataset's Figure 9/10 curves and the Figure 11
// timing breakdown.
type MixedResult struct {
	Dataset string
	Updates int

	SplitMerge QualitySeries
	Propagate  QualitySeries

	// Per-update averages (Figure 11). The *Recon variants amortize the
	// total reconstruction cost over all updates.
	SplitMergeTime            time.Duration
	SplitMergeTimeRecon       time.Duration
	PropagateTime             time.Duration
	PropagateTimeRecon        time.Duration
	SplitMergeReconstructions int
	PropagateReconstructions  int
}

// RunMixed replays the same mixed update script against the split/merge
// algorithm and the propagate algorithm (both with the 5% reconstruction
// heuristic, as in §7.1) and samples the quality metric. The input graph is
// consumed (the pool edges are removed from it).
func RunMixed(name string, g *graph.Graph, cfg MixedConfig) MixedResult {
	ops := workload.MixedScript(g, cfg.RemoveFrac, cfg.Pairs, cfg.Seed)
	gSM := g        // split/merge operates on the original
	gP := g.Clone() // propagate on a clone with identical NodeIDs

	sm := oneindex.Build(gSM)
	smRecon, smLast := 0, sm.Size()
	pr := oneindex.Build(gP)
	pRecon, pLast := 0, pr.Size()

	res := MixedResult{Dataset: name, Updates: len(ops)}
	res.SplitMerge.Name = "split/merge"
	res.Propagate.Name = "propagate"

	var smTime, smReconTime, pTime, pReconTime time.Duration
	sample := func(upd int) {
		// Both graphs are identical here, so one minimum suffices.
		min := partition.CoarsestStable(gSM, partition.ByLabel(gSM)).NumBlocks()
		res.SplitMerge.Points = append(res.SplitMerge.Points, QualityPoint{
			Updates: upd, Quality: quality(sm.Size(), min)})
		res.Propagate.Points = append(res.Propagate.Points, QualityPoint{
			Updates: upd, Quality: quality(pr.Size(), min)})
	}
	sample(0)
	reconstruct := func(x *oneindex.Index, last *int, count *int, total *time.Duration) {
		if cfg.Threshold <= 0 || float64(x.Size()) <= (1+cfg.Threshold)*float64(*last) {
			return
		}
		start := time.Now()
		*x = *baseline.ReconstructOneIndex(x)
		*total += time.Since(start)
		*last = x.Size()
		*count++
	}
	for i, op := range ops {
		start := time.Now()
		applyOp(sm, op)
		smTime += time.Since(start)
		// Split/merge cannot guarantee minimum on cyclic graphs, so the
		// paper applies the same growth trigger to it too (§7.1). It
		// virtually never fires.
		reconstruct(sm, &smLast, &smRecon, &smReconTime)

		start = time.Now()
		if op.Insert {
			must(pr.InsertEdgeSplitOnly(op.U, op.V, graph.IDRef))
		} else {
			must(pr.DeleteEdgeSplitOnly(op.U, op.V))
		}
		pTime += time.Since(start)
		reconstruct(pr, &pLast, &pRecon, &pReconTime)

		if cfg.SampleEvery > 0 && (i+1)%cfg.SampleEvery == 0 {
			sample(i + 1)
		}
	}
	n := len(ops)
	res.SplitMergeTime = perUpdate(smTime, n)
	res.SplitMergeTimeRecon = perUpdate(smTime+smReconTime, n)
	res.PropagateTime = perUpdate(pTime, n)
	res.PropagateTimeRecon = perUpdate(pTime+pReconTime, n)
	res.SplitMergeReconstructions = smRecon
	res.PropagateReconstructions = pRecon
	return res
}

func applyOp(x *oneindex.Index, op graph.EdgeOp) {
	if op.Insert {
		must(x.InsertEdge(op.U, op.V, graph.IDRef))
	} else {
		must(x.DeleteEdge(op.U, op.V))
	}
}

func quality(size, min int) float64 {
	if min == 0 {
		return 0
	}
	return float64(size)/float64(min) - 1
}

func must(err error) {
	if err != nil {
		panic("experiments: " + err.Error())
	}
}
