package experiments

import (
	"time"

	"structix/internal/akindex"
	"structix/internal/baseline"
	"structix/internal/graph"
	"structix/internal/partition"
	"structix/internal/workload"
)

// AkConfig parameterizes the A(k)-index experiments (§7.2).
type AkConfig struct {
	Ks          []int   // paper: 2..5
	Pairs       int     // insert/delete pairs (paper: 1000 for Fig 13, 1000 for Tables 1-2)
	RemoveFrac  float64 // paper: 0.2
	SampleEvery int
	Threshold   float64 // reconstruction trigger for the simple algorithm
	Seed        int64
}

// AkResult carries one (dataset, k) cell of Figure 13 and Tables 1-2.
type AkResult struct {
	Dataset string
	K       int
	Updates int

	// SimpleNoRecon is the Figure 13 curve: the simple algorithm without
	// reconstruction blows the index up.
	SimpleNoRecon QualitySeries

	// SplitMergeQuality should be identically zero (Theorem 2); it is
	// measured, not assumed.
	SplitMergeQuality QualitySeries

	// Table 2: average per-update times.
	SplitMergeTime      time.Duration
	SimpleWithReconTime time.Duration

	// Table 1: average number of updates between two consecutive
	// reconstructions for the simple algorithm with the 5% trigger
	// (Updates / Reconstructions; 0 reconstructions reports Updates).
	UpdatesPerReconstruction float64
	Reconstructions          int
}

// RunAk replays a mixed update script at each k against (a) the split/merge
// family maintenance and (b) the simple algorithm — once without
// reconstruction for the Figure 13 quality curve and once with the 5%
// trigger for the Table 1/2 measurements. The input graph is consumed.
func RunAk(name string, g *graph.Graph, cfg AkConfig) []AkResult {
	ops := workload.MixedScript(g, cfg.RemoveFrac, cfg.Pairs, cfg.Seed)
	var out []AkResult
	for _, k := range cfg.Ks {
		gSM := g.Clone()
		gS1 := g.Clone() // simple, no reconstruction (Fig 13)
		gS2 := g.Clone() // simple + reconstruction (Tables 1-2)

		sm := akindex.Build(gSM, k)
		s1 := baseline.NewSimpleAk(gS1, k, 0)
		s2 := baseline.NewSimpleAk(gS2, k, cfg.Threshold)

		res := AkResult{Dataset: name, K: k, Updates: len(ops)}
		res.SimpleNoRecon.Name = "simple"
		res.SplitMergeQuality.Name = "split/merge"

		var smTime, s2Time time.Duration
		sample := func(upd int) {
			min := partition.KBisimLevels(gSM, k)[k].NumBlocks()
			res.SplitMergeQuality.Points = append(res.SplitMergeQuality.Points,
				QualityPoint{Updates: upd, Quality: quality(sm.Size(), min)})
			res.SimpleNoRecon.Points = append(res.SimpleNoRecon.Points,
				QualityPoint{Updates: upd, Quality: quality(s1.Size(), min)})
		}
		sample(0)
		for i, op := range ops {
			start := time.Now()
			if op.Insert {
				must(sm.InsertEdge(op.U, op.V, graph.IDRef))
			} else {
				must(sm.DeleteEdge(op.U, op.V))
			}
			smTime += time.Since(start)

			if op.Insert {
				must(s1.InsertEdge(op.U, op.V, graph.IDRef))
			} else {
				must(s1.DeleteEdge(op.U, op.V))
			}

			start = time.Now()
			if op.Insert {
				must(s2.InsertEdge(op.U, op.V, graph.IDRef))
			} else {
				must(s2.DeleteEdge(op.U, op.V))
			}
			s2Time += time.Since(start)

			if cfg.SampleEvery > 0 && (i+1)%cfg.SampleEvery == 0 {
				sample(i + 1)
			}
		}
		res.SplitMergeTime = perUpdate(smTime, len(ops))
		res.SimpleWithReconTime = perUpdate(s2Time, len(ops))
		res.Reconstructions = s2.Reconstructions
		if s2.Reconstructions > 0 {
			res.UpdatesPerReconstruction = float64(len(ops)) / float64(s2.Reconstructions)
		} else {
			res.UpdatesPerReconstruction = float64(len(ops))
		}
		out = append(out, res)
	}
	return out
}

// StorageResult is one (dataset, k) cell of Table 3.
type StorageResult struct {
	Dataset string
	K       int
	Storage akindex.Storage
}

// RunStorage measures Table 3: the storage of a freshly built stand-alone
// A(k)-index vs. the full A(0..k) family with refinement tree and
// inter-iedges.
func RunStorage(name string, g *graph.Graph, ks []int) []StorageResult {
	var out []StorageResult
	for _, k := range ks {
		x := akindex.Build(g, k)
		out = append(out, StorageResult{Dataset: name, K: k, Storage: x.MeasureStorage()})
	}
	return out
}
