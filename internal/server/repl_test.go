package server_test

// End-to-end replication through the serving layer: a durable leader
// server, a follower bootstrapped over HTTP from it, min_epoch
// read-your-writes on the replica, typed not-leader redirects, the
// ReplicaSet client helper, and the repl stats/metrics surface.

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"structix"
	"structix/internal/client"
	"structix/internal/graph"
	"structix/internal/opscript"
	"structix/internal/persist"
	"structix/internal/server"
)

// startReplicaPair serves a durable leader and a follower bootstrapped
// from it, returning both plus fresh insertable node pairs.
func startReplicaPair(t *testing.T, cfg server.Config) (leader, follower *testServer, pairs [][2]graph.NodeID) {
	t.Helper()
	g := xmarkTree(256, 21)
	pairs = freshPairs(g, 64, 23)
	ldb, err := structix.Open(filepath.Join(t.TempDir(), "leader"), structix.Options{
		Bootstrap: func() (*structix.Database, error) { return &structix.Database{Graph: g}, nil },
	})
	if err != nil {
		t.Fatalf("open leader: %v", err)
	}
	leader = startServerOn(t, ldb, nil, cfg)

	fdb, err := structix.OpenFollower(filepath.Join(t.TempDir(), "follower"), leader.url, structix.Options{})
	if err != nil {
		t.Fatalf("open follower: %v", err)
	}
	follower = startServerOn(t, fdb, nil, cfg)

	t.Cleanup(func() {
		follower.shutdown(t)
		if err := fdb.Close(); err != nil {
			t.Errorf("close follower: %v", err)
		}
		leader.shutdown(t)
		if err := ldb.Close(); err != nil {
			t.Errorf("close leader: %v", err)
		}
	})
	return leader, follower, pairs
}

func TestServerReplicaServesFreshReads(t *testing.T) {
	leader, follower, pairs := startReplicaPair(t, server.Config{})
	ctx := context.Background()

	// Write on the leader; the ack carries the journal seq.
	var last client.UpdateResult
	for _, p := range pairs[:8] {
		res, err := leader.cli.Update(ctx, []opscript.Op{{Kind: opscript.Insert, U: p[0], V: p[1], Edge: graph.IDRef}})
		if err != nil {
			t.Fatalf("leader update: %v", err)
		}
		last = res
	}
	if last.Seq == 0 {
		t.Fatal("durable leader acked an update without a journal seq")
	}

	// Read-your-writes on the replica: min_epoch = the write's seq.
	for _, expr := range []string{"//person/name", "/site", "//*"} {
		want, err := leader.cli.QueryWith(ctx, expr, client.QueryOpts{MinEpoch: last.Seq, Wait: 10 * time.Second})
		if err != nil {
			t.Fatalf("leader query %q: %v", expr, err)
		}
		got, err := follower.cli.QueryWith(ctx, expr, client.QueryOpts{MinEpoch: last.Seq, Wait: 10 * time.Second})
		if err != nil {
			t.Fatalf("replica query %q: %v", expr, err)
		}
		if got.Count != want.Count || !reflect.DeepEqual(got.Nodes, want.Nodes) {
			t.Fatalf("replica answer for %q diverged: %d nodes vs %d", expr, got.Count, want.Count)
		}
		if got.Seq < last.Seq {
			t.Fatalf("replica served %q at seq %d, below the min_epoch bound %d", expr, got.Seq, last.Seq)
		}
	}

	// Writes on the replica fail typed, naming the leader.
	p := pairs[8]
	_, err := follower.cli.Update(ctx, []opscript.Op{{Kind: opscript.Insert, U: p[0], V: p[1], Edge: graph.IDRef}})
	if !errors.Is(err, structix.ErrNotLeader) {
		t.Fatalf("replica write: %v, want ErrNotLeader", err)
	}
	var nle *structix.NotLeaderError
	if !errors.As(err, &nle) || nle.Leader != leader.url {
		t.Fatalf("replica write error does not name the leader: %v", err)
	}

	// The health check stays green on a streaming replica.
	if err := follower.cli.Health(ctx); err != nil {
		t.Fatalf("replica health: %v", err)
	}

	// Stats carry the repl group on both sides.
	fst, err := follower.cli.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if fst.Repl == nil || fst.Repl.Role != "follower" || fst.Repl.Follower == nil {
		t.Fatalf("follower stats missing repl group: %+v", fst.Repl)
	}
	if fst.Repl.Follower.Leader != leader.url {
		t.Fatalf("follower stats name leader %q, want %q", fst.Repl.Follower.Leader, leader.url)
	}
	lst, err := leader.cli.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if lst.Repl == nil || lst.Repl.Role != "leader" || lst.Repl.Leader == nil {
		t.Fatalf("leader stats missing repl group: %+v", lst.Repl)
	}
	if lst.Repl.Leader.ActiveStreams != 1 {
		t.Fatalf("leader sees %d active streams, want 1", lst.Repl.Leader.ActiveStreams)
	}
	if lst.DurableSeq == 0 || lst.SnapshotSeq != 0 && lst.SnapshotSeq > lst.AppliedSeq {
		t.Fatalf("leader durability group inconsistent: %+v", lst)
	}

	// Prometheus exposition names the role and the stream counters.
	if body := fetchMetrics(t, follower.url); !strings.Contains(body, `structix_repl_role{role="follower"} 1`) ||
		!strings.Contains(body, "structix_repl_lag_seq") {
		t.Fatal("follower /metrics missing structix_repl_* series")
	}
	if body := fetchMetrics(t, leader.url); !strings.Contains(body, `structix_repl_role{role="leader"} 1`) ||
		!strings.Contains(body, "structix_repl_frames_shipped_total") {
		t.Fatal("leader /metrics missing structix_repl_* series")
	}
}

func fetchMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestReplicaSetReadsOwnWrites drives the replica-aware client: writes
// land on the leader, reads round-robin across both endpoints, and every
// read observes every acknowledged write.
func TestReplicaSetReadsOwnWrites(t *testing.T) {
	leader, follower, pairs := startReplicaPair(t, server.Config{})
	ctx := context.Background()

	rs := client.NewReplicaSet(leader.url, follower.url)
	rs.Wait = 10 * time.Second
	base, err := rs.Query(ctx, "//*")
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pairs[:6] {
		if _, err := rs.Update(ctx, []opscript.Op{{Kind: opscript.Insert, U: p[0], V: p[1], Edge: graph.IDRef}}); err != nil {
			t.Fatalf("set update %d: %v", i, err)
		}
		// Both readers take turns; each must already see the write.
		for r := 0; r < 2; r++ {
			res, err := rs.Query(ctx, "//*")
			if err != nil {
				t.Fatalf("set query after update %d: %v", i, err)
			}
			if res.Count != base.Count {
				t.Fatalf("node count drifted: %d, want %d (IDREF inserts add no nodes)", res.Count, base.Count)
			}
			if res.Seq < rs.LastSeq() {
				t.Fatalf("read at seq %d below the set's bound %d", res.Seq, rs.LastSeq())
			}
		}
	}
	if rs.LastSeq() == 0 {
		t.Fatal("replica set never learned a write seq")
	}
}

// TestPropertyReplicaStrategiesAgree is the replication property test:
// under a stream of random leader writes, a caught-up follower must be
// bit-identical to the leader, and both read strategies — compiled
// automata with the result cache and without it — must give exactly the
// leader's answer at the same seq, whichever replica serves it. Run under -race this also exercises the
// apply/publish/serve interleaving on every node.
func TestPropertyReplicaStrategiesAgree(t *testing.T) {
	g := xmarkTree(256, 31)
	pairs := freshPairs(g, 64, 33)
	ldb, err := structix.Open(filepath.Join(t.TempDir(), "leader"), structix.Options{
		Bootstrap: func() (*structix.Database, error) { return &structix.Database{Graph: g}, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	leader := startServerOn(t, ldb, nil, server.Config{})

	strategies := []struct {
		name string
		cfg  server.Config
	}{
		{"cached", server.Config{}},
		{"compiled", server.Config{QueryCacheEntries: -1}},
	}
	fdbs := make([]*structix.DB, len(strategies))
	fsrvs := make([]*testServer, len(strategies))
	for i, s := range strategies {
		fdb, err := structix.OpenFollower(filepath.Join(t.TempDir(), s.name), leader.url, structix.Options{})
		if err != nil {
			t.Fatalf("open %s follower: %v", s.name, err)
		}
		fdbs[i] = fdb
		fsrvs[i] = startServerOn(t, fdb, nil, s.cfg)
	}
	t.Cleanup(func() {
		for i := range fsrvs {
			fsrvs[i].shutdown(t)
			fdbs[i].Close()
		}
		leader.shutdown(t)
		ldb.Close()
	})

	ctx := context.Background()
	exprs := []string{"//person/name", "/site", "//*", "//nope"}
	rng := rand.New(rand.NewSource(71))
	var inserted [][2]graph.NodeID
	next := 0
	for round := 0; round < 6; round++ {
		// A few random ops per round: mostly fresh inserts, sometimes
		// deleting one back out, so the replicas chase real churn.
		var last client.UpdateResult
		for k := 0; k < 3; k++ {
			var op opscript.Op
			if len(inserted) > 0 && rng.Intn(3) == 0 {
				p := inserted[len(inserted)-1]
				inserted = inserted[:len(inserted)-1]
				op = opscript.Op{Kind: opscript.Delete, U: p[0], V: p[1]}
			} else if next < len(pairs) {
				p := pairs[next]
				next++
				inserted = append(inserted, p)
				op = opscript.Op{Kind: opscript.Insert, U: p[0], V: p[1], Edge: graph.IDRef}
			} else {
				continue
			}
			res, err := leader.cli.Update(ctx, []opscript.Op{op})
			if err != nil {
				t.Fatalf("round %d leader write: %v", round, err)
			}
			last = res
		}
		opts := client.QueryOpts{MinEpoch: last.Seq, Wait: 15 * time.Second}
		for _, expr := range exprs {
			want, err := leader.cli.QueryWith(ctx, expr, opts)
			if err != nil {
				t.Fatalf("round %d leader query %q: %v", round, expr, err)
			}
			for i, s := range strategies {
				// Twice on the cache-enabled strategy: the second answer comes
				// from the epoch-keyed result cache and must agree too.
				times := 1
				if s.name == "cached" {
					times = 2
				}
				for rep := 0; rep < times; rep++ {
					got, err := fsrvs[i].cli.QueryWith(ctx, expr, opts)
					if err != nil {
						t.Fatalf("round %d %s replica query %q: %v", round, s.name, expr, err)
					}
					if got.Count != want.Count || !reflect.DeepEqual(got.Nodes, want.Nodes) {
						t.Fatalf("round %d: %s replica disagrees with the leader on %q: %d nodes vs %d",
							round, s.name, expr, got.Count, want.Count)
					}
					if got.Seq < last.Seq {
						t.Fatalf("round %d: %s replica served %q below the min_epoch bound (%d < %d)",
							round, s.name, expr, got.Seq, last.Seq)
					}
				}
			}
		}
	}

	// Bit-identity at the store level: each caught-up follower's canonical
	// persisted form equals the leader's, byte for byte.
	want := fingerprint(t, ldb)
	for i, s := range strategies {
		wctx, cancel := context.WithTimeout(ctx, 20*time.Second)
		err := fdbs[i].Shard(0).WaitForSeq(wctx, ldb.Shard(0).Seq())
		cancel()
		if err != nil {
			t.Fatalf("%s follower never caught up: %v", s.name, err)
		}
		if got := fingerprint(t, fdbs[i]); got != want {
			t.Fatalf("%s follower snapshot is not bit-identical to the leader's", s.name)
		}
	}
}

// fingerprint is the canonical persisted form of a store's snapshot —
// equal strings mean identical node ids, labels, values, edges and index
// partitions.
func fingerprint(t *testing.T, db *structix.DB) string {
	t.Helper()
	var buf bytes.Buffer
	if err := persist.SaveSnapshot(&buf, db.Snapshot().Shard(0)); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestServerMinEpochTimesOutStale pins the stale-read contract: a
// min_epoch the store cannot reach within the wait bound is a 504 with
// code replica_stale, not a hang and not a silent stale answer.
func TestServerMinEpochTimesOutStale(t *testing.T) {
	leader, _, _ := startReplicaPair(t, server.Config{})
	ctx := context.Background()

	st, err := leader.cli.Durability(ctx)
	if err != nil {
		t.Fatal(err)
	}
	_, err = leader.cli.QueryWith(ctx, "/site", client.QueryOpts{MinEpoch: st.AppliedSeq + 1000, Wait: 50 * time.Millisecond})
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Code != server.CodeReplicaStale || ae.Status != http.StatusGatewayTimeout {
		t.Fatalf("unreachable min_epoch returned %v, want 504 replica_stale", err)
	}
}
