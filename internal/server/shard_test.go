package server

// White-box tests for the sharded serving layer and the commit-pipeline
// and engine fixes that rode along with it: per-shard pipelines behind
// one HTTP surface, scatter-gather queries, cross-shard rejection, and
// the metrics/epoch discipline of the window commit.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"structix"
	"structix/internal/graph"
	"structix/internal/shard"
	"structix/internal/wal"
)

// shardedFixture builds a forest of small components under the root (so a
// bootstrap split spreads them across shards) and returns the base graph.
func shardedFixture(comps int) *graph.Graph {
	g := graph.New()
	root := g.AddRoot()
	labels := []string{"a", "b", "c"}
	for i := 0; i < comps; i++ {
		top := g.AddNode(labels[i%len(labels)])
		mustEdge(g, root, top, graph.Tree)
		x := g.AddNode("x")
		mustEdge(g, top, x, graph.Tree)
		y := g.AddNode("y")
		mustEdge(g, x, y, graph.Tree)
	}
	return g
}

func mustEdge(g *graph.Graph, u, v graph.NodeID, k graph.EdgeKind) {
	if err := g.AddEdge(u, v, k); err != nil {
		panic(err)
	}
}

func postJSON(t *testing.T, h http.Handler, path, body string) (int, []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

func queryNodes(t *testing.T, h http.Handler, expr string) QueryReply {
	t.Helper()
	code, body := postJSON(t, h, "/v1/query", fmt.Sprintf(`{"expr":%q}`, expr))
	if code != http.StatusOK {
		t.Fatalf("query %s: status %d: %s", expr, code, body)
	}
	var rep QueryReply
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatalf("query %s: %v", expr, err)
	}
	return rep
}

// TestShardedServerEquivalence serves the same graph unsharded and over 3
// shards and checks the HTTP answers agree (modulo the id mapping).
func TestShardedServerEquivalence(t *testing.T) {
	base := shardedFixture(9)
	ref := New(structix.NewDB(structix.BuildOneIndex(base.Clone())), Config{})
	defer ref.coms[0].close()

	sdb, mapping := structix.NewShardedDB(base, 3)
	srv := New(sdb, Config{})
	defer func() {
		for _, c := range srv.coms {
			c.close()
		}
	}()

	for _, expr := range []string{"/a", "//x", "//y", "/b/x", "/*/x/y", "//nope"} {
		want := queryNodes(t, ref.Handler(), expr)
		got := queryNodes(t, srv.Handler(), expr)
		if got.Count != want.Count {
			t.Fatalf("%s: count %d, want %d", expr, got.Count, want.Count)
		}
		trans := make([]graph.NodeID, 0, len(want.Nodes))
		for _, n := range want.Nodes {
			trans = append(trans, mapping[n])
		}
		sort.Slice(trans, func(i, j int) bool { return trans[i] < trans[j] })
		if len(got.Nodes) != len(trans) {
			t.Fatalf("%s: %d nodes, want %d", expr, len(got.Nodes), len(trans))
		}
		for i := range trans {
			if got.Nodes[i] != trans[i] {
				t.Fatalf("%s: node[%d] = %d, want %d", expr, i, got.Nodes[i], trans[i])
			}
		}
		if len(got.Epochs) != 3 {
			t.Fatalf("%s: epoch vector %v, want 3 entries", expr, got.Epochs)
		}
	}
}

// TestShardedServerUpdateRouting drives writes through the sharded HTTP
// surface: a same-shard edge, a script under the root, a cross-shard
// rejection, and a scattered multi-shard batch.
func TestShardedServerUpdateRouting(t *testing.T) {
	base := shardedFixture(9)
	sdb, mapping := structix.NewShardedDB(base, 3)
	srv := New(sdb, Config{})
	defer func() {
		for _, c := range srv.coms {
			c.close()
		}
	}()
	h := srv.Handler()
	m := sdb.Map()
	r := m.Router()

	// Group the old component tops by their shard so we can aim ops.
	byShard := make(map[int][]graph.NodeID) // shard → global x-node ids
	for old, g := range mapping {
		if g == graph.InvalidNode || m.IsRoot(g) {
			continue
		}
		if base.LabelName(graph.NodeID(old)) == "x" {
			byShard[r.ShardOf(g)] = append(byShard[r.ShardOf(g)], g)
		}
	}
	if len(byShard) < 2 {
		t.Fatalf("fixture landed on %d shards, need ≥2", len(byShard))
	}
	shards := make([]int, 0, len(byShard))
	for s := range byShard {
		shards = append(shards, s)
	}
	sort.Ints(shards)

	// Same-shard IDREF between two x nodes (if the shard has two).
	var sameShard []graph.NodeID
	for _, s := range shards {
		if len(byShard[s]) >= 2 {
			sameShard = byShard[s][:2]
			break
		}
	}
	if sameShard != nil {
		body := fmt.Sprintf(`{"ops":[{"op":"insert","u":%d,"v":%d,"kind":"idref"}]}`, sameShard[0], sameShard[1])
		if code, b := postJSON(t, h, "/v1/update", body); code != http.StatusOK {
			t.Fatalf("same-shard insert: status %d: %s", code, b)
		}
	}

	// Cross-shard edge: refused before admission, cause "cross_shard".
	u, v := byShard[shards[0]][0], byShard[shards[1]][0]
	body := fmt.Sprintf(`{"ops":[{"op":"insert","u":%d,"v":%d,"kind":"idref"}]}`, u, v)
	code, b := postJSON(t, h, "/v1/update", body)
	if code != http.StatusConflict {
		t.Fatalf("cross-shard insert: status %d: %s", code, b)
	}
	var er ErrorReply
	if err := json.Unmarshal(b, &er); err != nil || er.Cause != causeCrossShard {
		t.Fatalf("cross-shard insert: reply %s, want cause %q", b, causeCrossShard)
	}
	if er.OpIndex == nil || *er.OpIndex != 0 {
		t.Fatalf("cross-shard insert: op index %v, want 0", er.OpIndex)
	}

	// A script whose ops disagree on a shard: refused at the first op that
	// disagrees, as a failed script op, before anything commits.
	body = fmt.Sprintf(`{"ops":[{"op":"addnode","label":"n","parent":%d},{"op":"addnode","label":"n","parent":%d}]}`, u, v)
	code, b = postJSON(t, h, "/v1/update", body)
	er = ErrorReply{}
	if err := json.Unmarshal(b, &er); err != nil || code != http.StatusConflict || er.Code != CodeOpFailed || er.Cause != causeCrossShard ||
		er.OpIndex == nil || *er.OpIndex != 1 || er.Op == nil || er.Op.V != v || er.Applied != 0 {
		t.Fatalf("cross-shard script: status %d: %s", code, b)
	}

	// A script grafting a new top-level node routes by label placement and
	// returns a global id queries can see.
	before := queryNodes(t, h, "/q").Count
	code, b = postJSON(t, h, "/v1/update", fmt.Sprintf(`{"ops":[{"op":"addnode","label":"q","parent":%d}]}`, m.GlobalRoot()))
	if code != http.StatusOK {
		t.Fatalf("addnode script: status %d: %s", code, b)
	}
	var ur UpdateReply
	if err := json.Unmarshal(b, &ur); err != nil || len(ur.NewNodes) != 1 {
		t.Fatalf("addnode script: reply %s", b)
	}
	after := queryNodes(t, h, "/q")
	if after.Count != before+1 {
		t.Fatalf("addnode not visible: count %d, want %d", after.Count, before+1)
	}
	found := false
	for _, n := range after.Nodes {
		if n == ur.NewNodes[0] {
			found = true
		}
	}
	if !found {
		t.Fatalf("new node %d not in query result %v", ur.NewNodes[0], after.Nodes)
	}

	// A multi-shard edge batch scatters: both deletes commit, one per shard.
	// (Delete the y edges under two x nodes on different shards — first
	// find each x's y child via //y membership… simpler: insert IDREFs
	// root-ward is illegal, so use two fresh inserts between x and y nodes
	// of different shards' own components.)
	yRep := queryNodes(t, h, "/*/x/y")
	inSh := func(s int, ids []graph.NodeID) graph.NodeID {
		for _, n := range ids {
			if r.ShardOf(n) == s {
				return n
			}
		}
		return graph.InvalidNode
	}
	y0, y1 := inSh(shards[0], yRep.Nodes), inSh(shards[1], yRep.Nodes)
	if y0 != graph.InvalidNode && y1 != graph.InvalidNode {
		body = fmt.Sprintf(`{"ops":[{"op":"insert","u":%d,"v":%d,"kind":"idref"},{"op":"insert","u":%d,"v":%d,"kind":"idref"}]}`,
			y0, byShard[shards[0]][0], y1, byShard[shards[1]][0])
		code, b = postJSON(t, h, "/v1/update", body)
		if code != http.StatusOK {
			t.Fatalf("scattered batch: status %d: %s", code, b)
		}
		var rep UpdateReply
		if err := json.Unmarshal(b, &rep); err != nil || rep.Applied != 2 || rep.Inserted != 2 {
			t.Fatalf("scattered batch: reply %s, want applied=2", b)
		}
	}

	// Stats reflect the shard layout.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var st StatsReply
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.Shards != 3 || len(st.ShardStats) != 3 {
		t.Fatalf("stats: shards=%d shard_stats=%d, want 3/3", st.Shards, len(st.ShardStats))
	}
	var epochSum uint64
	for _, ss := range st.ShardStats {
		epochSum += ss.Epoch
	}
	if epochSum != st.Epoch {
		t.Fatalf("epoch vector sums to %d, global epoch %d", epochSum, st.Epoch)
	}
	if if0 := sdb.Validate(); if0 != nil {
		t.Fatalf("sharded store invalid after serving: %v", if0)
	}
}

// TestCommitMetricsAfterBarrier pins the commit-counter discipline: a
// window counts toward batches/batchedOps only after its durability
// barrier held, and a rejected member's epoch is the one current at its
// own outcome — not one a later member published.
func TestCommitMetricsAfterBarrier(t *testing.T) {
	g := graph.New()
	root := g.AddRoot()
	a := g.AddNode("a")
	mustEdge(g, root, a, graph.Tree)
	b := g.AddNode("b")
	mustEdge(g, root, b, graph.Tree)
	c := g.AddNode("c")
	mustEdge(g, root, c, graph.Tree)

	store := structix.NewDB(structix.BuildOneIndex(g))
	m := newMetrics(1)
	com := &committer{store: store.Shard(0), m: m,
		closing: make(chan struct{}), quit: make(chan struct{}), doneCh: make(chan struct{})}

	// queued is what submit would have stamped: commit ends every
	// member's queue-wait stage when the window starts applying.
	mk := func(ops ...graph.EdgeOp) *updateReq {
		return &updateReq{Part: shard.Part{Rec: &wal.Record{Kind: wal.RecEdges, Edges: ops}}, queued: time.Now(), done: make(chan updateOutcome, 1)}
	}

	// Clean window: one batch, both ops counted, same epoch for both.
	r1 := mk(graph.InsertOp(a, b, graph.IDRef))
	r2 := mk(graph.InsertOp(b, c, graph.IDRef))
	com.commit([]*updateReq{r1, r2})
	if got := m.batches.Load(); got != 1 {
		t.Fatalf("batches after clean window: %d, want 1", got)
	}
	if got := m.batchedOps.Load(); got != 2 {
		t.Fatalf("batchedOps after clean window: %d, want 2", got)
	}
	o1, o2 := <-r1.done, <-r2.done
	if o1.Err != nil || o2.Err != nil || o1.epoch != o2.epoch {
		t.Fatalf("clean window outcomes: %+v / %+v", o1, o2)
	}

	// Mixed window: member 2 is invalid (duplicate of member 1's op), so
	// the window falls back to per-member commits. The rejected member's
	// epoch must be the one current at its own turn — member 1 had
	// published (epoch+1), member 3 had not yet (epoch+2).
	e0 := m.epoch.Load()
	f1 := mk(graph.InsertOp(a, c, graph.IDRef))
	f2 := mk(graph.InsertOp(a, c, graph.IDRef)) // duplicate: rejected alone
	f3 := mk(graph.DeleteOp(a, b))
	com.commit([]*updateReq{f1, f2, f3})
	out1, out2, out3 := <-f1.done, <-f2.done, <-f3.done
	if out1.Err != nil || out3.Err != nil {
		t.Fatalf("fallback members failed: %v / %v", out1.Err, out3.Err)
	}
	if out2.Err == nil {
		t.Fatal("duplicate member committed, want rejection")
	}
	if out1.epoch != e0+1 || out3.epoch != e0+2 {
		t.Fatalf("fallback epochs %d/%d, want %d/%d", out1.epoch, out3.epoch, e0+1, e0+2)
	}
	if out2.epoch != e0+1 {
		t.Fatalf("rejected member epoch %d, want %d (captured at its own turn)", out2.epoch, e0+1)
	}
	// Only the two committed members count.
	if got := m.batches.Load(); got != 3 {
		t.Fatalf("batches after mixed window: %d, want 3", got)
	}
	if got := m.batchedOps.Load(); got != 4 {
		t.Fatalf("batchedOps after mixed window: %d, want 4", got)
	}
	// Queue wait is observed once per member, committed or rejected, and
	// these members waited microseconds, not a timer's milliseconds.
	if got := m.queueWait.n.Load(); got != 5 {
		t.Fatalf("queue-wait observations: %d, want 5", got)
	}
	if p99 := m.queueWait.quantileUs(0.99); p99 > 1_000_000 {
		t.Fatalf("queue-wait p99 %dus for requests stamped just before their window", p99)
	}
}

// TestProgramCacheBounds pins the engine's program-cache discipline: the
// bound holds under concurrent misses (no check-then-act overshoot), and
// parse failures are served from the bounded negative cache.
func TestProgramCacheBounds(t *testing.T) {
	e := &engine{progCap: 4, parseErrCap: 2}

	// A hot invalid expression parses once; repeats hit the negative cache
	// and return the identical error value.
	bad := "//["
	_, err1 := e.program(bad)
	if err1 == nil {
		t.Fatalf("%q parsed", bad)
	}
	_, err2 := e.program(bad)
	if err2 != err1 {
		t.Fatalf("parse error not served from the negative cache: %v vs %v", err1, err2)
	}
	// The negative cache is bounded: overflow entries are not retained.
	for i := 0; i < 10; i++ {
		_, _ = e.program(fmt.Sprintf("//[%d", i))
	}
	if n := e.parseErrCnt.Load(); n > int64(e.parseErrCap) {
		t.Fatalf("negative cache holds %d entries, cap %d", n, e.parseErrCap)
	}

	// Concurrent misses on unique expressions never push the program cache
	// past its cap, and concurrent misses on the same expression count it
	// once.
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				_, _ = e.program(fmt.Sprintf("/l%d", i%6))
			}
		}(w)
	}
	wg.Wait()
	if n := e.progCount.Load(); n > int64(e.progCap) {
		t.Fatalf("program cache count %d exceeds cap %d", n, e.progCap)
	}
	stored := 0
	e.progs.Range(func(_, _ any) bool { stored++; return true })
	if stored > e.progCap {
		t.Fatalf("program cache holds %d entries, cap %d", stored, e.progCap)
	}
	if stored != int(e.progCount.Load()) {
		t.Fatalf("program count %d disagrees with stored %d", e.progCount.Load(), stored)
	}
}

// TestShardedServerRootResultOnce: with an IDREF into the root committed
// on each of two shards, the replicated root is a result on both; the
// merged reply must list it once and count it once, count_only included.
func TestShardedServerRootResultOnce(t *testing.T) {
	base := shardedFixture(9)
	sdb, mapping := structix.NewShardedDB(base, 2)
	srv := New(sdb, Config{})
	defer func() {
		for _, c := range srv.coms {
			c.close()
		}
	}()
	h := srv.Handler()
	m := sdb.Map()
	var ops []string
	onShard := map[int]bool{}
	for _, top := range base.Succ(base.Root()) {
		if s := m.Router().ShardOf(mapping[top]); !onShard[s] {
			onShard[s] = true
			ops = append(ops, fmt.Sprintf(`{"op":"insert","u":%d,"v":%d,"kind":"idref"}`, mapping[top], m.GlobalRoot()))
		}
	}
	if len(ops) != 2 {
		t.Fatalf("top-level subtrees landed on %d shards, need 2", len(ops))
	}
	if code, b := postJSON(t, h, "/v1/update", `{"ops":[`+strings.Join(ops, ",")+`]}`); code != http.StatusOK {
		t.Fatalf("root-ward IDREFs: status %d: %s", code, b)
	}
	expr := "//" + base.LabelName(base.Root())
	for i := 0; i < 2; i++ { // a miss, then a cache hit
		rep := queryNodes(t, h, expr)
		if rep.Count != 1 || len(rep.Nodes) != 1 || rep.Nodes[0] != m.GlobalRoot() {
			t.Fatalf("%s (query %d): count %d nodes %v, want the root once", expr, i, rep.Count, rep.Nodes)
		}
		code, body := postJSON(t, h, "/v1/query", fmt.Sprintf(`{"expr":%q,"count_only":true}`, expr))
		var cnt QueryReply
		if err := json.Unmarshal(body, &cnt); code != http.StatusOK || err != nil || cnt.Count != 1 {
			t.Fatalf("%s count_only (query %d): status %d count %d (%v), want 1", expr, i, code, cnt.Count, err)
		}
	}
}
