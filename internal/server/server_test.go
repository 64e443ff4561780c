package server_test

// End-to-end tests of the serving layer over a real loopback listener and
// the typed client: the group-commit property test (concurrent single-op
// updates ≡ one sequential batch), error fidelity across the wire, a
// reader/writer stress run (meaningful under -race), and graceful shutdown
// under load with persistence.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"structix"
	"structix/internal/client"
	"structix/internal/graph"
	"structix/internal/gtest"
	"structix/internal/opscript"
	"structix/internal/server"
)

type testServer struct {
	srv  *server.Server
	db   *structix.DB
	idx  *structix.OneIndex
	cli  *client.Client
	url  string
	errc chan error
}

// startServer serves idx (as an in-memory DB) on an ephemeral loopback
// port via the real listener path (not httptest), so Shutdown exercises
// the full drain ordering the binary uses.
func startServer(t *testing.T, idx *structix.OneIndex, cfg server.Config) *testServer {
	t.Helper()
	return startServerOn(t, structix.NewDB(idx), idx, cfg)
}

func startServerOn(t testing.TB, db *structix.DB, idx *structix.OneIndex, cfg server.Config) *testServer {
	t.Helper()
	srv := server.New(db, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	url := "http://" + ln.Addr().String()
	return &testServer{srv: srv, db: db, idx: idx, cli: client.New(url), url: url, errc: errc}
}

func (ts *testServer) shutdown(t testing.TB) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := ts.srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-ts.errc; !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("serve returned %v, want ErrServerClosed", err)
	}
}

// xmarkTree generates an acyclic (cyclicity 0) XMark-shaped dataset. The
// property test depends on acyclicity: minimum 1-indexes are unique for
// DAGs, so the concurrent and sequential runs must converge to the same
// partition, not merely equivalent ones.
func xmarkTree(scale int, seed int64) *graph.Graph {
	return structix.GenerateXMark(structix.DefaultXMark(scale, 0, seed))
}

// freshPairs picks n distinct node pairs (u < v, edge absent) usable as
// independent IDREF insertions. Tree node ids increase parent→child, so
// low→high insertions keep the graph acyclic.
func freshPairs(g *graph.Graph, n int, seed int64) [][2]graph.NodeID {
	rng := rand.New(rand.NewSource(seed))
	var alive []graph.NodeID
	for v := graph.NodeID(0); v < g.MaxNodeID(); v++ {
		if g.Alive(v) {
			alive = append(alive, v)
		}
	}
	seen := make(map[[2]graph.NodeID]bool)
	out := make([][2]graph.NodeID, 0, n)
	for len(out) < n {
		u := alive[rng.Intn(len(alive))]
		v := alive[rng.Intn(len(alive))]
		if u > v {
			u, v = v, u
		}
		p := [2]graph.NodeID{u, v}
		if u == v || seen[p] || g.HasEdge(u, v) {
			continue
		}
		seen[p] = true
		out = append(out, p)
	}
	return out
}

func sortedEdges(g *graph.Graph) [][2]graph.NodeID {
	es := g.EdgeListAll()
	sort.Slice(es, func(i, j int) bool {
		if es[i][0] != es[j][0] {
			return es[i][0] < es[j][0]
		}
		return es[i][1] < es[j][1]
	})
	return es
}

// partitionSig canonicalizes an index's extent partition: each live node
// maps to the smallest node id in its extent. Two indexes over the same
// node set induce the same partition iff their signatures are equal.
func partitionSig(x *structix.OneIndex) map[graph.NodeID]graph.NodeID {
	g := x.Graph()
	rep := make(map[graph.NodeID]graph.NodeID, g.NumNodes())
	for v := graph.NodeID(0); v < g.MaxNodeID(); v++ {
		if !g.Alive(v) {
			continue
		}
		ext := x.Extent(x.INodeOf(v))
		min := ext[0]
		for _, w := range ext {
			if w < min {
				min = w
			}
		}
		rep[v] = min
	}
	return rep
}

// TestServerConcurrentUpdatesMatchSequentialBatch is the group-commit
// property test: N concurrent single-op updates through the server must
// leave the graph and the 1-index in exactly the state one sequential
// ApplyBatch of the same ops produces.
func TestServerConcurrentUpdatesMatchSequentialBatch(t *testing.T) {
	g := xmarkTree(512, 3)
	base := g.Clone()
	pairs := freshPairs(g, 48, 7)
	idx := structix.BuildOneIndex(g)
	ts := startServer(t, idx, server.Config{})

	ctx := context.Background()
	errs := make([]error, len(pairs))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, p := range pairs {
		wg.Add(1)
		go func(i int, u, v graph.NodeID) {
			defer wg.Done()
			<-start
			_, errs[i] = ts.cli.Update(ctx, []opscript.Op{
				{Kind: opscript.Insert, U: u, V: v, Edge: graph.IDRef},
			})
		}(i, p[0], p[1])
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent update %d (%v): %v", i, pairs[i], err)
		}
	}
	st, err := ts.cli.Stats(ctx)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	t.Logf("group commit: %d ops in %d batches (mean %.2f)", st.BatchedOps, st.Batches, st.MeanBatchSize)
	ts.shutdown(t)

	ops := make([]graph.EdgeOp, len(pairs))
	for i, p := range pairs {
		ops[i] = graph.InsertOp(p[0], p[1], graph.IDRef)
	}
	ref := structix.BuildOneIndex(base)
	if err := ref.ApplyBatch(ops); err != nil {
		t.Fatalf("sequential reference batch: %v", err)
	}

	if err := idx.Validate(); err != nil {
		t.Fatalf("served index invalid after concurrent updates: %v", err)
	}
	if got, want := sortedEdges(idx.Graph()), sortedEdges(ref.Graph()); !reflect.DeepEqual(got, want) {
		t.Fatalf("edge sets diverge: served %d edges, reference %d", len(got), len(want))
	}
	if idx.Size() != ref.Size() {
		t.Fatalf("index sizes diverge: served %d inodes, reference %d", idx.Size(), ref.Size())
	}
	if !reflect.DeepEqual(partitionSig(idx), partitionSig(ref)) {
		t.Fatal("extent partitions diverge between concurrent and sequential application")
	}
}

// TestServerErrorFidelity checks that update failures cross the wire as
// the same typed errors the in-process API returns.
func TestServerErrorFidelity(t *testing.T) {
	g, _, _, ids := gtest.Fig2()
	ts := startServer(t, structix.BuildOneIndex(g), server.Config{})
	defer ts.shutdown(t)
	ctx := context.Background()

	// An atomic batch with a valid first op and an invalid second: the
	// rejection must carry the offending index and sentinel cause...
	_, err := ts.cli.Update(ctx, []opscript.Op{
		{Kind: opscript.Insert, U: ids["2"], V: ids["4"], Edge: graph.Tree},
		{Kind: opscript.Delete, U: ids["6"], V: ids["7"]},
	})
	var be *graph.BatchError
	if !errors.As(err, &be) {
		t.Fatalf("rejected batch: got %v (%T), want *graph.BatchError", err, err)
	}
	if be.OpIndex != 1 || !errors.Is(err, graph.ErrNoEdge) || be.Op.Insert {
		t.Fatalf("BatchError %+v, want op 1, ErrNoEdge, delete", be)
	}
	// ...and the valid first op must NOT have been applied (atomicity over
	// the wire): deleting it now must fail too.
	_, err = ts.cli.Update(ctx, []opscript.Op{{Kind: opscript.Delete, U: ids["2"], V: ids["4"]}})
	if !errors.As(err, &be) || !errors.Is(err, graph.ErrNoEdge) {
		t.Fatalf("first op of rejected batch leaked into the graph: %v", err)
	}

	// Dead-node ops round-trip with the ErrDeadNode sentinel.
	_, err = ts.cli.Update(ctx, []opscript.Op{{Kind: opscript.Delete, U: 9999, V: ids["4"]}})
	if !errors.As(err, &be) || !errors.Is(err, graph.ErrDeadNode) {
		t.Fatalf("dead-node delete: got %v, want BatchError(ErrDeadNode)", err)
	}

	// Script (node-op) requests fail as *opscript.OpError with the index
	// of the failing op; the applied prefix stays applied (documented
	// stream semantics).
	res, err := ts.cli.Update(ctx, []opscript.Op{
		{Kind: opscript.AddNode, Label: "z", V: ids["1"]},
		{Kind: opscript.DelNode, U: 9999},
	})
	var oe *opscript.OpError
	if !errors.As(err, &oe) {
		t.Fatalf("failing script: got %v (%T), want *opscript.OpError", err, err)
	}
	if oe.Index != 1 || oe.Op.Kind != opscript.DelNode || !errors.Is(err, graph.ErrDeadNode) {
		t.Fatalf("OpError %+v cause %v, want op 1 delnode ErrDeadNode", oe, oe.Err)
	}
	_ = res

	// Malformed bodies are 400s.
	for _, body := range []string{`{"expr":"/a",`, `{"exprx":"/a"}`, `{"expr":"///("}`} {
		resp, err := http.Post(ts.url+"/v1/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("post %q: %v", body, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
	// Wrong method is 405.
	resp, err := http.Get(ts.url + "/v1/query")
	if err != nil {
		t.Fatalf("get query: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/query: status %d, want 405", resp.StatusCode)
	}
}

// TestServerReadersVsCommitLoop races lock-free readers against the
// group-commit loop; run with -race this is the data-race gate for the
// whole serving path.
func TestServerReadersVsCommitLoop(t *testing.T) {
	g := xmarkTree(512, 5)
	baseEdges := g.NumEdges()
	pairs := freshPairs(g, 64, 11)
	ts := startServer(t, structix.BuildOneIndex(g), server.Config{})
	ctx := context.Background()

	const rounds = 8
	var writers sync.WaitGroup
	for w := 0; w < 2; w++ {
		mine := pairs[w*32 : (w+1)*32]
		writers.Add(1)
		go func(mine [][2]graph.NodeID) {
			defer writers.Done()
			ins := make([]opscript.Op, len(mine))
			del := make([]opscript.Op, len(mine))
			for i, p := range mine {
				ins[i] = opscript.Op{Kind: opscript.Insert, U: p[0], V: p[1], Edge: graph.IDRef}
				del[i] = opscript.Op{Kind: opscript.Delete, U: p[0], V: p[1]}
			}
			for r := 0; r < rounds; r++ {
				if _, err := ts.cli.Update(ctx, ins); err != nil {
					t.Errorf("writer insert round %d: %v", r, err)
					return
				}
				if _, err := ts.cli.Update(ctx, del); err != nil {
					t.Errorf("writer delete round %d: %v", r, err)
					return
				}
			}
		}(mine)
	}

	done := make(chan struct{})
	exprs := []string{"//person/name", "/site", "//*"}
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				expr := exprs[(r+i)%len(exprs)]
				if i%2 == 0 {
					if _, err := ts.cli.Query(ctx, expr); err != nil {
						t.Errorf("reader query %s: %v", expr, err)
						return
					}
				} else if _, err := ts.cli.Count(ctx, expr); err != nil {
					t.Errorf("reader count %s: %v", expr, err)
					return
				}
				if i%16 == 0 {
					if _, err := ts.cli.Stats(ctx); err != nil {
						t.Errorf("reader stats: %v", err)
						return
					}
				}
			}
		}(r)
	}

	writers.Wait()
	close(done)
	readers.Wait()
	ts.shutdown(t)

	if err := ts.idx.Validate(); err != nil {
		t.Fatalf("index invalid after stress: %v", err)
	}
	if got := ts.idx.Graph().NumEdges(); got != baseEdges {
		t.Fatalf("edge count drifted under stress: %d, want %d", got, baseEdges)
	}
}

// TestServerGracefulShutdownUnderLoad shuts the server down while workers
// hammer a durable store with updates: every update must either fully
// commit or fail with a clean typed error, and reopening the store
// directory must recover a state that agrees exactly with the
// per-request outcomes (acknowledged == durable).
func TestServerGracefulShutdownUnderLoad(t *testing.T) {
	g := xmarkTree(256, 9)
	baseEdges := g.NumEdges()
	pairs := freshPairs(g, 300, 13)
	dataDir := filepath.Join(t.TempDir(), "store")
	db, err := structix.Open(dataDir, structix.Options{
		Sync:      structix.SyncWindow,
		Bootstrap: func() (*structix.Database, error) { return &structix.Database{Graph: g}, nil },
	})
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	ts := startServerOn(t, db, nil, server.Config{})
	ctx := context.Background()

	var (
		mu        sync.Mutex
		committed [][2]graph.NodeID // server said 200
		rejected  [][2]graph.NodeID // typed clean rejection: must not be applied
		ambiguous [][2]graph.NodeID // transport error: response lost, state unknown
	)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(pairs) {
					return
				}
				p := pairs[i]
				_, err := ts.cli.Update(ctx, []opscript.Op{
					{Kind: opscript.Insert, U: p[0], V: p[1], Edge: graph.IDRef},
				})
				mu.Lock()
				switch {
				case err == nil:
					committed = append(committed, p)
				default:
					var ae *client.APIError
					if errors.As(err, &ae) && (ae.ShuttingDown() || ae.Overloaded()) {
						rejected = append(rejected, p)
					} else if be := (*graph.BatchError)(nil); errors.As(err, &be) {
						t.Errorf("valid insert %v rejected as batch error: %v", p, err)
					} else {
						ambiguous = append(ambiguous, p)
					}
				}
				mu.Unlock()
			}
		}()
	}

	time.Sleep(30 * time.Millisecond)
	ts.shutdown(t)
	wg.Wait()
	t.Logf("shutdown under load: %d committed, %d cleanly rejected, %d transport-ambiguous",
		len(committed), len(rejected), len(ambiguous))
	if len(committed) == 0 {
		t.Fatal("shutdown raced too early: nothing committed before drain")
	}

	servedEdges := 0
	servedEdges = countFrozenEdges(ts.db.Snapshot().Shard(0).Data())
	if err := ts.db.Close(); err != nil {
		t.Fatalf("close store: %v", err)
	}

	// Recovery: every acknowledged commit must be in the reopened store
	// (Shutdown sealed the journal before the waiters could observe it),
	// every clean rejection must not be.
	rec, err := structix.Open(dataDir, structix.Options{})
	if err != nil {
		t.Fatalf("reopen store: %v", err)
	}
	defer rec.Close()
	if err := rec.Validate(); err != nil {
		t.Fatalf("recovered store invalid: %v", err)
	}
	snap := rec.Snapshot().Shard(0).Data()
	hasEdge := func(p [2]graph.NodeID) bool {
		found := false
		snap.EachSucc(p[0], func(w graph.NodeID, _ graph.EdgeKind) {
			if w == p[1] {
				found = true
			}
		})
		return found
	}
	for _, p := range committed {
		if !hasEdge(p) {
			t.Fatalf("committed insert %v missing from recovered store", p)
		}
	}
	for _, p := range rejected {
		if hasEdge(p) {
			t.Fatalf("cleanly rejected insert %v present in recovered store", p)
		}
	}
	present := 0
	for _, p := range ambiguous {
		if hasEdge(p) {
			present++
		}
	}
	recEdges := countFrozenEdges(snap)
	if want := baseEdges + len(committed) + present; recEdges != want {
		t.Fatalf("recovered edge count %d, want %d (base %d + committed %d + ambiguous-present %d)",
			recEdges, want, baseEdges, len(committed), present)
	}
	// The recovered state is the served state.
	if recEdges != servedEdges {
		t.Fatalf("served graph (%d edges) diverges from recovered (%d)", servedEdges, recEdges)
	}
}

// countFrozenEdges walks a frozen graph's successor lists.
func countFrozenEdges(f *graph.Frozen) int {
	n := 0
	for v := graph.NodeID(0); v < f.MaxNodeID(); v++ {
		if !f.Alive(v) {
			continue
		}
		f.EachSucc(v, func(graph.NodeID, graph.EdgeKind) { n++ })
	}
	return n
}

// TestServerRootAndRangeErrors sends the writes that once stranded or
// corrupted a store over the wire, on both index families: a root
// deletion is a 409 with cause "root", a node id outside the 32-bit range
// a 400, and an addnode under a dead parent comes back to the client as
// ErrDeadNode. The store keeps its root throughout.
func TestServerRootAndRangeErrors(t *testing.T) {
	for _, fam := range []struct {
		name string
		idx  func(*graph.Graph) structix.Index
	}{
		{"1-index", func(g *graph.Graph) structix.Index { return structix.BuildOneIndex(g) }},
		{"A(2)", func(g *graph.Graph) structix.Index { return structix.BuildAkIndex(g, 2) }},
	} {
		t.Run(fam.name, func(t *testing.T) {
			g, _, _, ids := gtest.Fig2()
			root := g.Root()
			db := structix.NewDB(fam.idx(g))
			ts := startServerOn(t, db, nil, server.Config{})
			defer ts.shutdown(t)
			post := func(body string) (int, server.ErrorReply) {
				t.Helper()
				resp, err := http.Post(ts.url+"/v1/update", "application/json", strings.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				var rep server.ErrorReply
				_ = json.NewDecoder(resp.Body).Decode(&rep)
				return resp.StatusCode, rep
			}
			for _, op := range []string{"delnode", "delsub"} {
				body := fmt.Sprintf(`{"ops":[{"op":%q,"node":%d}]}`, op, root)
				if code, rep := post(body); code != http.StatusConflict || rep.Cause != "root" {
					t.Fatalf("%s: %d %+v, want 409 cause root", body, code, rep)
				}
			}
			for _, body := range []string{
				`{"ops":[{"op":"delsub","node":4294967296}]}`,
				`{"ops":[{"op":"delnode","node":-2147483649}]}`,
				`{"ops":[{"op":"insert","u":4294967298,"v":4}]}`,
			} {
				if code, rep := post(body); code != http.StatusBadRequest {
					t.Fatalf("%s: %d %+v, want 400", body, code, rep)
				}
			}
			_, err := ts.cli.Update(context.Background(), []opscript.Op{{Kind: opscript.AddNode, Label: "z", V: 9999}})
			if !errors.Is(err, graph.ErrDeadNode) {
				t.Fatalf("addnode under a dead parent: %v, want ErrDeadNode", err)
			}
			_, err = ts.cli.Update(context.Background(), []opscript.Op{{Kind: opscript.DelNode, U: ids["1"]}, {Kind: opscript.DelSub, U: root}})
			if !errors.Is(err, graph.ErrRootNode) {
				t.Fatalf("delsub root after a delnode: %v, want ErrRootNode", err)
			}
			if err := db.Validate(); err != nil {
				t.Fatal(err)
			}
			if s := db.Snapshot().Shard(0).Data(); !s.Alive(root) {
				t.Fatal("store lost its root")
			}
		})
	}
}

// TestServerAddNodeUnreachableParent sends an addnode whose parent is -1
// to an unsharded and a 2-shard server: a 409 with cause "dead_node" at op
// 0 and no new node, where it once added a node nothing could reach (on
// shard 0 of a sharded store).
func TestServerAddNodeUnreachableParent(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			g, _, _, _ := gtest.Fig2()
			sdb, _ := structix.NewShardedDB(g, shards)
			srv := server.New(sdb, server.Config{})
			defer srv.Shutdown(context.Background())
			nodes := sdb.Count(structix.MustParsePath("//*"))
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/update",
				strings.NewReader(`{"ops":[{"op":"addnode","label":"x","parent":-1}]}`)))
			var rep server.ErrorReply
			if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
				t.Fatal(err)
			}
			if rec.Code != http.StatusConflict || rep.Cause != "dead_node" || rep.OpIndex == nil || *rep.OpIndex != 0 {
				t.Fatalf("addnode under -1: %d %s, want 409 cause dead_node at op 0", rec.Code, rec.Body)
			}
			if got := sdb.Count(structix.MustParsePath("//*")); got != nodes {
				t.Fatalf("//* = %d after the rejected addnode, want %d", got, nodes)
			}
			if err := sdb.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
