package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"structix"
	"structix/internal/graph"
	"structix/internal/query"
)

// The sharding benchmark: the same forest of XMark instances served by an
// in-process sharded DB at increasing shard counts, under one writer per
// shard committing small same-shard IDREF batches. Every commit pays a
// snapshot publication proportional to its shard's graph, so partitioning
// the forest divides that per-commit cost — the write-throughput curve
// over shard counts is the measurement. A second phase runs a 90/10
// read/write mix to show what scatter-gather reads cost (and gain) while
// the per-shard pipelines stay busy.

// ShardConfig drives the sharding benchmark.
type ShardConfig struct {
	// ShardCounts are the partition widths to measure (1 is the baseline).
	ShardCounts []int
	// Instances is how many XMark instances are merged under one root —
	// the components the bootstrap splitter spreads across shards.
	Instances int
	// Scale is the per-instance XMark reduction factor.
	Scale int
	// BatchOps is the ops per ApplyBatch commit (small on purpose: the
	// benchmark isolates per-commit publication cost, not batching).
	BatchOps int
	// PairsPerInstance bounds the absent-IDREF pool sampled per instance.
	PairsPerInstance int
	// Duration is the measured write phase per shard count; MixDuration
	// the measured 90/10 phase.
	Duration    time.Duration
	MixDuration time.Duration
	// ReadsPerWrite is the mixed-phase ratio: evaluations per write batch
	// (9 reads per write ≈ a 90/10 mix).
	ReadsPerWrite int
	// Validate re-checks every shard's index against a rebuild after each
	// measured run.
	Validate bool
	Seed     int64
}

// DefaultShardConfig mirrors the committed benchmark: shard counts 1/2/4/8
// over 16 XMark instances, 8-op batches, 600ms phases.
func DefaultShardConfig(seed int64) ShardConfig {
	return ShardConfig{
		ShardCounts:      []int{1, 2, 4, 8},
		Instances:        16,
		Scale:            32,
		BatchOps:         8,
		PairsPerInstance: 256,
		Duration:         600 * time.Millisecond,
		MixDuration:      600 * time.Millisecond,
		ReadsPerWrite:    9,
		Validate:         true,
		Seed:             seed,
	}
}

// ShardRow is one shard count's measurements.
type ShardRow struct {
	Shards  int `json:"shards"`
	Writers int `json:"writers"` // shards that received components (and thus a writer)

	WriteOps       int     `json:"write_ops"`
	Commits        int     `json:"commits"`
	WriteOpsPerSec float64 `json:"write_ops_per_sec"`
	CommitsPerSec  float64 `json:"commits_per_sec"`
	// SpeedupVs1 is this row's write throughput over the 1-shard row's.
	SpeedupVs1 float64 `json:"speedup_vs_1"`

	MixedReads          int     `json:"mixed_reads"`
	MixedReadQPS        float64 `json:"mixed_read_qps"`
	MixedWriteOpsPerSec float64 `json:"mixed_write_ops_per_sec"`
}

// ShardResult is the full sharding benchmark (BENCH_shard.json).
type ShardResult struct {
	Dataset    string     `json:"dataset"`
	Nodes      int        `json:"nodes"`
	Edges      int        `json:"edges"`
	Instances  int        `json:"instances"`
	BatchOps   int        `json:"batch_ops"`
	DurationMs int64      `json:"duration_ms"`
	Rows       []ShardRow `json:"rows"`
}

// shardPair is one absent IDREF edge in the merged forest's id space,
// tagged with the instance (= component) both endpoints belong to.
type shardPair struct {
	u, v graph.NodeID
}

// buildShardForest merges cfg.Instances XMark instances under one fresh
// root and returns the forest plus each instance's node list (old ids).
func buildShardForest(cfg ShardConfig) (*graph.Graph, [][]graph.NodeID) {
	g := graph.New()
	root := g.AddRoot()
	members := make([][]graph.NodeID, cfg.Instances)
	for i := 0; i < cfg.Instances; i++ {
		p := Dataset{Name: "XMark(1)", Cyclicity: 1}.Build(cfg.Scale, cfg.Seed+int64(i))
		proot := p.Root()
		idmap := make([]graph.NodeID, p.MaxNodeID()+1)
		p.EachNode(func(v graph.NodeID) {
			if v == proot {
				idmap[v] = root
				return
			}
			nv := g.AddNode(p.LabelName(v))
			if val := p.Value(v); val != "" {
				g.SetValue(nv, val)
			}
			idmap[v] = nv
			members[i] = append(members[i], nv)
		})
		p.EachEdge(func(u, v graph.NodeID, k graph.EdgeKind) {
			if err := g.AddEdge(idmap[u], idmap[v], k); err != nil {
				panic(fmt.Sprintf("experiments: shard forest merge: %v", err))
			}
		})
	}
	return g, members
}

// sampleShardPairs draws absent same-instance IDREF pairs (old ids); each
// pair stays within one component, so it routes to a single shard at
// every shard count.
func sampleShardPairs(g *graph.Graph, members [][]graph.NodeID, perInstance int, rng *rand.Rand) []shardPair {
	var pairs []shardPair
	seen := map[[2]graph.NodeID]bool{}
	for _, nodes := range members {
		got := 0
		for tries := 0; got < perInstance && tries < 50*perInstance; tries++ {
			u := nodes[rng.Intn(len(nodes))]
			v := nodes[rng.Intn(len(nodes))]
			if u == v || g.HasEdge(u, v) || seen[[2]graph.NodeID{u, v}] {
				continue
			}
			seen[[2]graph.NodeID{u, v}] = true
			pairs = append(pairs, shardPair{u: u, v: v})
			got++
		}
	}
	return pairs
}

var shardQueries = []string{
	"/site/people/person/name",
	"//item/incategory",
	"//person",
}

// RunShard builds the forest once, then measures each shard count: a
// write-only phase (one writer per populated shard, insert/delete cycles
// of BatchOps-sized same-shard batches) and a 90/10 mixed phase (each
// worker interleaves scatter-gather evaluations with its write cycles).
func RunShard(cfg ShardConfig) (ShardResult, error) {
	base, members := buildShardForest(cfg)
	rng := rand.New(rand.NewSource(cfg.Seed))
	pairs := sampleShardPairs(base, members, cfg.PairsPerInstance, rng)
	if len(pairs) < cfg.BatchOps*len(cfg.ShardCounts) {
		return ShardResult{}, fmt.Errorf("experiments: shard: pair pool too small (%d)", len(pairs))
	}
	queries := make([]*query.Path, len(shardQueries))
	for i, s := range shardQueries {
		p, err := structix.ParsePath(s)
		if err != nil {
			return ShardResult{}, err
		}
		queries[i] = p
	}

	res := ShardResult{
		Dataset:    fmt.Sprintf("XMark(1) ×%d", cfg.Instances),
		Nodes:      base.NumNodes(),
		Edges:      base.NumEdges(),
		Instances:  cfg.Instances,
		BatchOps:   cfg.BatchOps,
		DurationMs: cfg.Duration.Milliseconds(),
	}

	for _, n := range cfg.ShardCounts {
		row, err := runShardCount(base, pairs, queries, n, cfg)
		if err != nil {
			return res, err
		}
		if len(res.Rows) > 0 && res.Rows[0].Shards == 1 && res.Rows[0].WriteOpsPerSec > 0 {
			row.SpeedupVs1 = row.WriteOpsPerSec / res.Rows[0].WriteOpsPerSec
		} else if n == 1 {
			row.SpeedupVs1 = 1
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func runShardCount(base *graph.Graph, pairs []shardPair, queries []*query.Path, n int, cfg ShardConfig) (ShardRow, error) {
	sdb, mapping := structix.NewShardedDB(base, n)
	r := sdb.Map().Router()

	// Route each pair's global translation to its shard.
	byShard := make([][]shardPair, n)
	for _, p := range pairs {
		gu, gv := mapping[p.u], mapping[p.v]
		if gu == graph.InvalidNode || gv == graph.InvalidNode {
			continue
		}
		s := r.ShardOf(gu)
		byShard[s] = append(byShard[s], shardPair{u: gu, v: gv})
	}
	row := ShardRow{Shards: n}
	for s := 0; s < n; s++ {
		if len(byShard[s]) >= cfg.BatchOps {
			row.Writers++
		}
	}
	if row.Writers == 0 {
		return row, fmt.Errorf("experiments: shard: no shard received %d pairs", cfg.BatchOps)
	}

	// Write phase: one writer per populated shard, insert/delete cycles.
	ops, commits, elapsed, _, err := runShardPhase(sdb, byShard, queries, cfg, cfg.Duration, 0)
	if err != nil {
		return row, err
	}
	row.WriteOps = ops
	row.Commits = commits
	row.WriteOpsPerSec = float64(ops) / elapsed.Seconds()
	row.CommitsPerSec = float64(commits) / elapsed.Seconds()

	// Mixed phase: the same writers interleave scatter-gather reads.
	mops, _, melapsed, mreads, err := runShardPhase(sdb, byShard, queries, cfg, cfg.MixDuration, cfg.ReadsPerWrite)
	if err != nil {
		return row, err
	}
	row.MixedReads = mreads
	row.MixedReadQPS = float64(mreads) / melapsed.Seconds()
	row.MixedWriteOpsPerSec = float64(mops) / melapsed.Seconds()

	if cfg.Validate {
		if err := sdb.Validate(); err != nil {
			return row, fmt.Errorf("experiments: shard: %d shards invalid after run: %w", n, err)
		}
	}
	return row, nil
}

// runShardPhase runs one timed phase: per populated shard, a worker
// cycling readsPerWrite evaluations (0 = write-only) then an insert batch
// and a delete batch of its shard's pairs.
func runShardPhase(sdb *structix.DB, byShard [][]shardPair, queries []*query.Path, cfg ShardConfig, d time.Duration, readsPerWrite int) (ops, commits int, elapsed time.Duration, reads int, err error) {
	var (
		wg                                 sync.WaitGroup
		totalOps, totalCommits, totalReads atomic.Int64
		firstErr                           atomic.Value
	)
	start := time.Now()
	deadline := start.Add(d)
	for s := range byShard {
		ps := byShard[s]
		if len(ps) < cfg.BatchOps {
			continue
		}
		wg.Add(1)
		go func(s int, ps []shardPair) {
			defer wg.Done()
			pos, q := 0, s%len(queries)
			ins := make([]graph.EdgeOp, cfg.BatchOps)
			del := make([]graph.EdgeOp, cfg.BatchOps)
			for time.Now().Before(deadline) {
				for k := 0; k < readsPerWrite; k++ {
					snap := sdb.Snapshot()
					snap.Eval(queries[q])
					q = (q + 1) % len(queries)
					totalReads.Add(1)
				}
				for k := 0; k < cfg.BatchOps; k++ {
					p := ps[(pos+k)%len(ps)]
					ins[k] = graph.InsertOp(p.u, p.v, graph.IDRef)
					del[k] = graph.DeleteOp(p.u, p.v)
				}
				if aerr := sdb.ApplyBatch(ins); aerr != nil {
					firstErr.CompareAndSwap(nil, fmt.Errorf("shard %d insert: %w", s, aerr))
					return
				}
				if aerr := sdb.ApplyBatch(del); aerr != nil {
					firstErr.CompareAndSwap(nil, fmt.Errorf("shard %d delete: %w", s, aerr))
					return
				}
				totalOps.Add(int64(2 * cfg.BatchOps))
				totalCommits.Add(2)
				pos = (pos + cfg.BatchOps) % len(ps)
			}
		}(s, ps)
	}
	wg.Wait()
	elapsed = time.Since(start)
	if e := firstErr.Load(); e != nil {
		return 0, 0, elapsed, 0, e.(error)
	}
	return int(totalOps.Load()), int(totalCommits.Load()), elapsed, int(totalReads.Load()), nil
}

// ReportShard prints the sharding benchmark in the report layout.
func ReportShard(w io.Writer, res ShardResult) {
	fmt.Fprintf(w, "\n== sharded write scale-out: %s (%d nodes, %d edges, %d-op batches) ==\n",
		res.Dataset, res.Nodes, res.Edges, res.BatchOps)
	fmt.Fprintf(w, "%8s %8s %12s %12s %9s %14s %14s\n",
		"shards", "writers", "write ops/s", "commits/s", "speedup", "mix read qps", "mix write/s")
	for _, r := range res.Rows {
		fmt.Fprintf(w, "%8d %8d %12.0f %12.0f %8.2fx %14.0f %14.0f\n",
			r.Shards, r.Writers, r.WriteOpsPerSec, r.CommitsPerSec, r.SpeedupVs1,
			r.MixedReadQPS, r.MixedWriteOpsPerSec)
	}
}

// WriteShardJSON writes the machine-readable result (BENCH_shard.json).
func WriteShardJSON(w io.Writer, res ShardResult) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}
