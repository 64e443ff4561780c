package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"structix"
	"structix/internal/client"
	"structix/internal/graph"
	"structix/internal/opscript"
	"structix/internal/server"
	"structix/internal/workload"
)

// ReplConfig drives the replication benchmark: a durable leader plus a
// fleet of read replicas bootstrapped over HTTP, measured for aggregate
// read throughput as the fleet grows and for the staleness a
// read-your-writes (min_epoch) reader actually observes.
type ReplConfig struct {
	// Replicas is the largest fleet measured; the sweep covers the
	// leader alone, one replica, and Replicas replicas.
	Replicas int
	// Slice is the measured window per endpoint. Endpoints are measured
	// one at a time (see ReplResult.Mode), so the wall-clock cost of a
	// sweep point is Slice × endpoints.
	Slice time.Duration
	// StalenessWrites is the number of leader writes sampled for the
	// staleness distribution: each write's ack carries its journal seq,
	// and the sample is how long a min_epoch read on a replica waits
	// before a snapshot covering that seq is served.
	StalenessWrites int
	// BatchOps is the number of edge ops per staleness write.
	BatchOps int
	Seed     int64
}

// DefaultReplConfig mirrors the committed benchmark: a 3-replica fleet,
// 300ms per endpoint slice, 32 staleness samples of 8-op writes.
func DefaultReplConfig(seed int64) ReplConfig {
	return ReplConfig{
		Replicas:        3,
		Slice:           300 * time.Millisecond,
		StalenessWrites: 32,
		BatchOps:        8,
		Seed:            seed,
	}
}

// ReplEndpointResult is one endpoint's saturated single-reader slice.
type ReplEndpointResult struct {
	Role      string  `json:"role"` // "leader" or "replica-N"
	Reads     int     `json:"reads"`
	QPS       float64 `json:"qps"`
	ReadP50Ns int64   `json:"read_p50_ns"`
	ReadP99Ns int64   `json:"read_p99_ns"`
}

// ReplSweepResult is one fleet size: the endpoints serving reads and the
// aggregate throughput they add up to.
type ReplSweepResult struct {
	// Replicas is the number of follower endpoints serving reads; 0 is
	// the leader-only baseline (reads on the leader, no fleet).
	Replicas  int                  `json:"replicas"`
	Endpoints []ReplEndpointResult `json:"endpoints"`
	// AggregateQPS is the sum of per-endpoint QPS — what the fleet
	// serves when each endpoint has a core of its own.
	AggregateQPS float64 `json:"aggregate_qps"`
	// SpeedupVsLeader is AggregateQPS over the leader-only baseline.
	SpeedupVsLeader float64 `json:"speedup_vs_leader"`
}

// ReplStaleness is the min_epoch wait-latency distribution: write on the
// leader, then immediately demand that seq from a replica.
type ReplStaleness struct {
	Samples int   `json:"samples"`
	P50Ns   int64 `json:"wait_p50_ns"`
	P99Ns   int64 `json:"wait_p99_ns"`
	MaxNs   int64 `json:"wait_max_ns"`
	// AlreadyFresh counts samples where the replica covered the seq
	// before the read arrived (no wait at the freshness gate).
	AlreadyFresh int `json:"already_fresh"`
}

// ReplResult is the full replication benchmark (BENCH_repl.json).
type ReplResult struct {
	Dataset string `json:"dataset"`
	// Mode documents the measurement methodology so the numbers are not
	// misread: on a single-core host the endpoints cannot genuinely run
	// concurrently, so each is saturated by one reader in its own time
	// slice and the aggregate is the sum — the throughput of a fleet
	// with one core per node.
	Mode      string            `json:"mode"`
	Nodes     int               `json:"nodes"`
	Edges     int               `json:"edges"`
	INodes    int               `json:"inodes"`
	SliceMs   int64             `json:"slice_ms"`
	Sweeps    []ReplSweepResult `json:"sweeps"`
	Staleness ReplStaleness     `json:"staleness"`
	// ScaleOut3v1 is the acceptance ratio: aggregate read QPS with the
	// 3-replica fleet over the 1-replica fleet.
	ScaleOut3v1 float64 `json:"scale_out_3_vs_1"`
	// FramesShipped is the leader's total shipped frame count after the
	// run, tying the numbers back to the replication stream itself.
	FramesShipped int64 `json:"frames_shipped"`
}

// replNode is one process-shaped endpoint: a store, its serving layer,
// and a loopback listener.
type replNode struct {
	db   *structix.DB
	srv  *server.Server
	url  string
	errc chan error
}

func startReplNode(db *structix.DB) (*replNode, error) {
	srv := server.New(db, server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &replNode{db: db, srv: srv, url: "http://" + ln.Addr().String(), errc: make(chan error, 1)}
	go func() { n.errc <- srv.Serve(ln) }()
	return n, nil
}

func (n *replNode) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := n.srv.Shutdown(ctx); err != nil {
		return err
	}
	if err := <-n.errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return n.db.Close()
}

// RunRepl boots a durable leader over g, attaches cfg.Replicas read
// replicas, and measures aggregate read throughput per fleet size plus
// the min_epoch staleness distribution.
func RunRepl(name string, g *graph.Graph, cfg ReplConfig) (ReplResult, error) {
	// The staleness writers need absent IDREF edges; carve the pool out of
	// g before the leader bootstraps so every node agrees they are absent
	// (batchEdgePool removes the pool edges from g in place).
	pool := batchEdgePool(g, cfg.Seed)
	if len(pool) < cfg.BatchOps {
		return ReplResult{}, fmt.Errorf("experiments: repl: edge pool too small (%d) for %d-op writes", len(pool), cfg.BatchOps)
	}

	res := ReplResult{
		Dataset: name,
		Mode: "time-sliced single-core: each endpoint saturated by one sequential reader in its own slice; " +
			"aggregate = sum of per-endpoint QPS (one core per node)",
		Nodes:   g.NumNodes(),
		Edges:   g.NumEdges(),
		SliceMs: cfg.Slice.Milliseconds(),
	}

	root, err := os.MkdirTemp("", "structix-bench-repl-*")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(root)

	ldb, err := structix.Open(filepath.Join(root, "leader"), structix.Options{
		Sync: structix.SyncAlways,
		Bootstrap: func() (*structix.Database, error) {
			return &structix.Database{Graph: g}, nil
		},
	})
	if err != nil {
		return res, fmt.Errorf("experiments: repl: open leader: %w", err)
	}
	res.INodes = ldb.Snapshot().Size()
	leader, err := startReplNode(ldb)
	if err != nil {
		return res, err
	}
	defer leader.stop()

	replicas := make([]*replNode, cfg.Replicas)
	for i := range replicas {
		fdb, err := structix.OpenFollower(filepath.Join(root, fmt.Sprintf("replica-%d", i)), leader.url, structix.Options{})
		if err != nil {
			return res, fmt.Errorf("experiments: repl: open replica %d: %w", i, err)
		}
		replicas[i], err = startReplNode(fdb)
		if err != nil {
			return res, err
		}
		defer replicas[i].stop()
	}

	// Fleet sweep. The leader-only point is the no-replication baseline;
	// the replicated points serve reads from the replicas alone, the
	// production shape where the leader keeps its core for writes.
	fleet := func(n int) []*replNode { return replicas[:n] }
	sweepSizes := []int{0, 1, cfg.Replicas}
	for _, n := range sweepSizes {
		sw := ReplSweepResult{Replicas: n}
		endpoints := fleet(n)
		if n == 0 {
			endpoints = []*replNode{leader}
		}
		for i, ep := range endpoints {
			role := "leader"
			if n > 0 {
				role = fmt.Sprintf("replica-%d", i)
			}
			er, err := measureReplEndpoint(ep.url, role, cfg.Slice)
			if err != nil {
				return res, err
			}
			sw.Endpoints = append(sw.Endpoints, er)
			sw.AggregateQPS += er.QPS
		}
		res.Sweeps = append(res.Sweeps, sw)
	}
	base := res.Sweeps[0].AggregateQPS
	for i := range res.Sweeps {
		if base > 0 {
			res.Sweeps[i].SpeedupVsLeader = res.Sweeps[i].AggregateQPS / base
		}
	}
	if one := res.Sweeps[1].AggregateQPS; one > 0 {
		res.ScaleOut3v1 = res.Sweeps[2].AggregateQPS / one
	}

	st, err := runReplStaleness(pool, leader, replicas, cfg)
	if err != nil {
		return res, err
	}
	res.Staleness = st

	lst, err := client.New(leader.url).Stats(context.Background())
	if err != nil {
		return res, err
	}
	if lst.Repl != nil && lst.Repl.Leader != nil {
		res.FramesShipped = lst.Repl.Leader.FramesShipped
	}
	return res, nil
}

// measureReplEndpoint saturates one endpoint with a single sequential
// reader for one slice and reports its read throughput and latency.
func measureReplEndpoint(url, role string, slice time.Duration) (ReplEndpointResult, error) {
	ctx := context.Background()
	cli := client.New(url)
	var lats []int64
	deadline := time.Now().Add(slice)
	for i := 0; time.Now().Before(deadline); i++ {
		expr := replQueries[i%len(replQueries)]
		start := time.Now()
		if _, err := cli.QueryLimit(ctx, expr, 128); err != nil {
			return ReplEndpointResult{}, fmt.Errorf("experiments: repl: %s read: %w", role, err)
		}
		lats = append(lats, time.Since(start).Nanoseconds())
	}
	r := ReplEndpointResult{
		Role:  role,
		Reads: len(lats),
		QPS:   float64(len(lats)) / slice.Seconds(),
	}
	r.ReadP50Ns, r.ReadP99Ns = percentiles(lats)
	return r, nil
}

// runReplStaleness writes on the leader and immediately demands each
// acked seq from a replica (round-robin) under min_epoch, timing how
// long the freshness gate holds the read.
func runReplStaleness(pool [][2]graph.NodeID, leader *replNode, replicas []*replNode, cfg ReplConfig) (ReplStaleness, error) {
	ctx := context.Background()
	mine := pool[:cfg.BatchOps]
	ins := make([]opscript.Op, len(mine))
	del := make([]opscript.Op, len(mine))
	for i, e := range mine {
		ins[i] = opscript.Op{Kind: opscript.Insert, U: e[0], V: e[1], Edge: graph.IDRef}
		del[i] = opscript.Op{Kind: opscript.Delete, U: e[0], V: e[1]}
	}

	lc := client.New(leader.url)
	fcs := make([]*client.Client, len(replicas))
	for i, r := range replicas {
		fcs[i] = client.New(r.url)
	}

	var waits []int64
	st := ReplStaleness{}
	inserted := false
	for k := 0; k < cfg.StalenessWrites; k++ {
		ops := ins
		if inserted {
			ops = del
		}
		up, err := lc.Update(ctx, ops)
		if err != nil {
			return st, fmt.Errorf("experiments: repl: staleness write %d: %w", k, err)
		}
		inserted = !inserted
		fc := fcs[k%len(fcs)]
		start := time.Now()
		got, err := fc.QueryWith(ctx, replQueries[k%len(replQueries)],
			client.QueryOpts{Limit: 1, MinEpoch: up.Seq, Wait: 30 * time.Second})
		if err != nil {
			return st, fmt.Errorf("experiments: repl: staleness read %d: %w", k, err)
		}
		wait := time.Since(start).Nanoseconds()
		waits = append(waits, wait)
		if got.Seq >= up.Seq && wait < int64(time.Millisecond) {
			st.AlreadyFresh++
		}
	}
	// Leave the pool slice absent, as it started.
	if inserted {
		if _, err := lc.Update(ctx, del); err != nil {
			return st, fmt.Errorf("experiments: repl: staleness drain: %w", err)
		}
	}
	st.Samples = len(waits)
	st.P50Ns, st.P99Ns = percentiles(waits)
	sort.Slice(waits, func(i, j int) bool { return waits[i] < waits[j] })
	st.MaxNs = waits[len(waits)-1]
	return st, nil
}

// replQueries is the replication benchmark's read mix.
var replQueries = []string{
	"//person/name",
	"/site/people/person",
	"//open_auction//person",
}

func percentiles(ns []int64) (p50, p99 int64) {
	if len(ns) == 0 {
		return 0, 0
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	return ns[len(ns)/2], ns[len(ns)*99/100]
}

// batchEdgePool removes 20% of g's IDREF edges (mutating g) and returns
// them: every pool edge is absent from the graph, so a workload that
// inserts a prefix and then deletes it again leaves the graph unchanged.
func batchEdgePool(g *graph.Graph, seed int64) [][2]graph.NodeID {
	before := g.EdgeList(graph.IDRef)
	workload.MixedScript(g, 0.2, 0, seed)
	present := make(map[[2]graph.NodeID]bool)
	for _, e := range g.EdgeList(graph.IDRef) {
		present[e] = true
	}
	var pool [][2]graph.NodeID
	for _, e := range before {
		if !present[e] {
			pool = append(pool, e)
		}
	}
	return pool
}

// ReportRepl prints the replication benchmark as a table.
func ReportRepl(w io.Writer, res ReplResult) {
	fmt.Fprintf(w, "\nReplication benchmark on %s (%d dnodes, %d dedges, %d inodes; %dms per endpoint slice)\n",
		res.Dataset, res.Nodes, res.Edges, res.INodes, res.SliceMs)
	fmt.Fprintf(w, "mode: %s\n", res.Mode)
	fmt.Fprintf(w, "%-10s %10s %12s %10s\n", "replicas", "endpoints", "agg reads/s", "speedup")
	for _, sw := range res.Sweeps {
		fmt.Fprintf(w, "%-10d %10d %12.0f %9.2fx\n",
			sw.Replicas, len(sw.Endpoints), sw.AggregateQPS, sw.SpeedupVsLeader)
	}
	fmt.Fprintf(w, "read scale-out, 3 replicas vs 1: ×%.2f aggregate\n", res.ScaleOut3v1)
	fmt.Fprintf(w, "staleness (min_epoch wait after leader ack, %d samples): p50 %.1fµs, p99 %.1fµs, max %.1fms; %d already fresh\n",
		res.Staleness.Samples,
		float64(res.Staleness.P50Ns)/1e3, float64(res.Staleness.P99Ns)/1e3,
		float64(res.Staleness.MaxNs)/1e6, res.Staleness.AlreadyFresh)
	fmt.Fprintf(w, "leader shipped %d stream frames during the run\n", res.FramesShipped)
}

// WriteReplJSON emits the result as indented JSON (BENCH_repl.json).
func WriteReplJSON(w io.Writer, res ReplResult) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}
