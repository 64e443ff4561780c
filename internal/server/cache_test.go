package server_test

// End-to-end tests of the query result cache: hit reporting over the
// wire, precise (footprint-based) invalidation across commits, the
// cache-off mode, chained programs for expressions longer than one
// automaton link, and the cache counters in stats and /metrics.

import (
	"context"
	"io"
	"net/http"
	"strings"
	"testing"

	"structix"
	"structix/internal/graph"
	"structix/internal/gtest"
	"structix/internal/opscript"
	"structix/internal/server"
)

func TestQueryCacheHitsOverWire(t *testing.T) {
	g, _, _, _ := gtest.Fig2()
	ts := startServer(t, structix.BuildOneIndex(g), server.Config{})
	defer ts.shutdown(t)
	ctx := context.Background()

	first, err := ts.cli.Query(ctx, "/a/b")
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Error("cold query reported cached")
	}
	second, err := ts.cli.Query(ctx, "/a/b")
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Error("repeat query not served from the cache")
	}
	if second.Count != first.Count || !equalNodeIDs(second.Nodes, first.Nodes) {
		t.Errorf("cached answer diverges: %v vs %v", second.Nodes, first.Nodes)
	}
	// CountOnly shares the same entry.
	if n, err := ts.cli.Count(ctx, "/a/b"); err != nil || n != first.Count {
		t.Errorf("count via cache: %d (%v), want %d", n, err, first.Count)
	}
	st, err := ts.cli.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheHits < 2 || st.CacheMisses < 1 || st.CacheEntries < 1 {
		t.Errorf("stats %+v, want ≥2 hits, ≥1 miss, ≥1 entry", st)
	}
	if st.CacheHitRate <= 0 {
		t.Errorf("hit rate %v", st.CacheHitRate)
	}
	if st.CompiledPrograms < 1 {
		t.Errorf("compiled programs %d", st.CompiledPrograms)
	}
}

// A commit whose dirty inodes lie outside a cached entry's footprint must
// leave that entry serving across the epoch bump; a commit inside the
// footprint must invalidate it.
func TestQueryCachePreciseInvalidation(t *testing.T) {
	g, u, v, ids := gtest.Fig2()
	// Hang a d-chain below node 8: the /a/b walk stops one frontier past
	// the b level (it touches the c inodes as dead-state successors but
	// never the chain), so commits down there are outside its footprint.
	d1 := g.AddNode("d")
	d2 := g.AddNode("d")
	for _, e := range [][2]graph.NodeID{{ids["8"], d1}, {d1, d2}} {
		if err := g.AddEdge(e[0], e[1], graph.Tree); err != nil {
			t.Fatal(err)
		}
	}
	ts := startServer(t, structix.BuildOneIndex(g), server.Config{})
	defer ts.shutdown(t)
	ctx := context.Background()

	warm := func(expr string) uint64 {
		t.Helper()
		res, err := ts.cli.Query(ctx, expr)
		if err != nil {
			t.Fatalf("query %s: %v", expr, err)
		}
		return res.Epoch
	}
	warm("/a/b")
	epoch0 := warm("/a/b")

	// Grow the chain two levels below the query's frontier: the commit
	// dirties only the deep d inode and the new leaf's slot, so the cached
	// entry must survive the epoch bump.
	if _, err := ts.cli.Update(ctx, []opscript.Op{
		{Kind: opscript.AddNode, Label: "e", V: d2},
	}); err != nil {
		t.Fatal(err)
	}
	res, err := ts.cli.Query(ctx, "/a/b")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cached {
		t.Error("commit outside the footprint flushed the entry")
	}
	if res.Epoch <= epoch0 {
		t.Errorf("epoch did not advance across the commit: %d -> %d", epoch0, res.Epoch)
	}

	// The Figure 2 insert (2→4) splits the b-partition — inodes inside the
	// /a/b footprint. The entry must be invalidated and recomputed.
	if _, err := ts.cli.Update(ctx, []opscript.Op{
		{Kind: opscript.Insert, U: u, V: v, Edge: graph.Tree},
	}); err != nil {
		t.Fatal(err)
	}
	res, err = ts.cli.Query(ctx, "/a/b")
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached {
		t.Error("commit inside the footprint left a stale entry serving")
	}
	if res.Count != 3 {
		t.Errorf("post-update /a/b count %d, want 3", res.Count)
	}
	st, err := ts.cli.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheInvalidated < 1 {
		t.Errorf("stats report no invalidations: %+v", st)
	}
}

// A footprint holds the slots a walk expanded, not the siblings it read a
// label from: a person→open_auction edge batch dirties the people and
// open_auctions branches, so an entry for the open_auctions branch must go
// while an entry for /site/regions/… keeps serving across the commit.
// (When footprints recorded every inspected slot, site's children were in
// every /site/… footprint and this batch flushed them all.)
func TestQueryCacheSurvivesSiblingCommit(t *testing.T) {
	// Acyclic XMark: with no watch edges the split cascade of the new edge
	// stops at the auction's subtree and the item and persons it
	// references, so an auction whose item lies outside africa provably
	// leaves the africa branch clean.
	g := xmarkTree(8, 1)
	regionOf := func(auction graph.NodeID) string {
		for _, ref := range g.Succ(auction) {
			if g.LabelName(ref) != "itemref" {
				continue
			}
			for _, item := range g.Succ(ref) {
				for _, region := range g.Pred(item) {
					if g.LabelName(region) != "itemref" {
						return g.LabelName(region)
					}
				}
			}
		}
		return ""
	}
	person, auction := graph.InvalidNode, graph.InvalidNode
	for _, v := range g.Nodes() {
		switch g.LabelName(v) {
		case "person":
			if person == graph.InvalidNode {
				person = v
			}
		case "open_auction":
			if r := regionOf(v); auction == graph.InvalidNode && r != "" && r != "africa" {
				auction = v
			}
		}
	}
	if person == graph.InvalidNode || auction == graph.InvalidNode {
		t.Fatal("dataset has no person or no open auction selling outside africa")
	}
	ts := startServer(t, structix.BuildOneIndex(g), server.Config{})
	defer ts.shutdown(t)
	ctx := context.Background()

	const regionsExpr = "/site/regions/africa/item/name"
	const auctionsExpr = "/site/open_auctions/open_auction/current"
	want := map[string]int{}
	for _, expr := range []string{regionsExpr, auctionsExpr} {
		first, err := ts.cli.Query(ctx, expr)
		if err != nil {
			t.Fatal(err)
		}
		again, err := ts.cli.Query(ctx, expr)
		if err != nil {
			t.Fatal(err)
		}
		if first.Count == 0 || !again.Cached {
			t.Fatalf("%s: count %d, repeat cached %v", expr, first.Count, again.Cached)
		}
		want[expr] = first.Count
	}
	st0, err := ts.cli.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st0.CacheFootprintSlots <= 0 {
		t.Errorf("two live entries but cache_footprint_slots = %d", st0.CacheFootprintSlots)
	}

	if _, err := ts.cli.Update(ctx, []opscript.Op{
		{Kind: opscript.Insert, U: person, V: auction, Edge: graph.IDRef},
	}); err != nil {
		t.Fatal(err)
	}

	regions, err := ts.cli.Query(ctx, regionsExpr)
	if err != nil {
		t.Fatal(err)
	}
	if !regions.Cached {
		t.Error("a person→open_auction commit flushed the /site/regions/… entry")
	}
	auctions, err := ts.cli.Query(ctx, auctionsExpr)
	if err != nil {
		t.Fatal(err)
	}
	if auctions.Cached {
		t.Error("a person→open_auction commit left the /site/open_auctions/… entry serving")
	}
	if regions.Count != want[regionsExpr] || auctions.Count != want[auctionsExpr] {
		t.Errorf("counts moved: regions %d (want %d), auctions %d (want %d)",
			regions.Count, want[regionsExpr], auctions.Count, want[auctionsExpr])
	}
	if regions.Epoch <= st0.Epoch {
		t.Errorf("epoch did not advance across the commit: %d -> %d", st0.Epoch, regions.Epoch)
	}
	st1, err := ts.cli.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st1.CacheInvalidated <= st0.CacheInvalidated {
		t.Errorf("cache_invalidated did not rise: %d -> %d", st0.CacheInvalidated, st1.CacheInvalidated)
	}
}

// Predicate-bearing queries read the data graph, so their entries carry no
// precise footprint: every commit flushes them, and they must never serve
// a stale answer.
func TestQueryCachePredicatesFlushEveryCommit(t *testing.T) {
	g, _, _, ids := gtest.Fig2()
	ts := startServer(t, structix.BuildOneIndex(g), server.Config{})
	defer ts.shutdown(t)
	ctx := context.Background()

	const expr = "//b[c]"
	if _, err := ts.cli.Query(ctx, expr); err != nil {
		t.Fatal(err)
	}
	res, err := ts.cli.Query(ctx, expr)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cached {
		t.Error("predicate query not cached between commits")
	}
	before := res.Count
	// Grow node 5's c-child set... actually delete 5→8 would orphan 8; add
	// a fresh c child under b-node 3 instead: the answer set is unchanged
	// but the commit must still flush the imprecise entry.
	if _, err := ts.cli.Update(ctx, []opscript.Op{
		{Kind: opscript.AddNode, Label: "c", V: ids["3"]},
	}); err != nil {
		t.Fatal(err)
	}
	res, err = ts.cli.Query(ctx, expr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached {
		t.Error("imprecise entry served across a commit")
	}
	if res.Count != before {
		t.Errorf("//b[c] count %d, want %d", res.Count, before)
	}
}

// With the cache disabled, queries still answer exactly, never report
// cached, and the counters stay zero.
func TestQueryCacheDisabledModes(t *testing.T) {
	for _, cfg := range []server.Config{
		{QueryCacheEntries: -1},
	} {
		g, _, _, _ := gtest.Fig2()
		ts := startServer(t, structix.BuildOneIndex(g), cfg)
		ctx := context.Background()
		for i := 0; i < 2; i++ {
			res, err := ts.cli.Query(ctx, "/a/b")
			if err != nil {
				t.Fatal(err)
			}
			if res.Cached {
				t.Errorf("cfg %+v: cached answer with the cache off", cfg)
			}
			if res.Count != 3 {
				t.Errorf("cfg %+v: count %d, want 3", cfg, res.Count)
			}
		}
		st, err := ts.cli.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.CacheHits != 0 || st.CacheEntries != 0 {
			t.Errorf("cfg %+v: cache counters moved: %+v", cfg, st)
		}
		ts.shutdown(t)
	}
}

// An expression longer than one automaton link (63 steps) compiles to a
// chain and is served like any other: its entry is cached with a precise
// footprint, so a commit that dirties only another branch leaves it
// serving, and a commit inside the footprint recomputes it exactly.
func TestQueryOverlongExpressionCachedPrecisely(t *testing.T) {
	g := graph.New()
	root := g.AddRoot()
	a, b, c := g.AddNode("a"), g.AddNode("b"), g.AddNode("c")
	x, y := g.AddNode("x"), g.AddNode("y")
	for _, e := range []struct {
		u, v graph.NodeID
		kind graph.EdgeKind
	}{
		{root, a, graph.Tree}, {a, b, graph.Tree}, {b, c, graph.Tree}, {c, b, graph.IDRef},
		{root, x, graph.Tree}, {x, y, graph.Tree},
	} {
		if err := g.AddEdge(e.u, e.v, e.kind); err != nil {
			t.Fatal(err)
		}
	}
	ts := startServer(t, structix.BuildOneIndex(g), server.Config{})
	defer ts.shutdown(t)
	ctx := context.Background()
	// 72 steps: a, then b and c alternating around the c→b cycle, ending on b.
	expr := "/a/b" + strings.Repeat("/*", 70)
	query := func(when string, wantCached bool, want ...graph.NodeID) {
		t.Helper()
		res, err := ts.cli.Query(ctx, expr)
		if err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		if res.Cached != wantCached || !equalNodeIDs(res.Nodes, want) {
			t.Fatalf("%s: cached %v nodes %v, want cached %v nodes %v", when, res.Cached, res.Nodes, wantCached, want)
		}
	}
	query("cold", false, b)
	query("repeat", true, b)

	if _, err := ts.cli.Update(ctx, []opscript.Op{{Kind: opscript.AddNode, Label: "z", V: y}}); err != nil {
		t.Fatal(err)
	}
	query("after a commit on another branch", true, b)

	// A second b below c: the c inode's successor list — in the footprint —
	// grows, and the new b is a 72-step match too.
	res, err := ts.cli.Update(ctx, []opscript.Op{{Kind: opscript.AddNode, Label: "b", V: c}})
	if err != nil {
		t.Fatal(err)
	}
	query("after a commit inside the footprint", false, b, res.NewNodes[0])
}

// The /metrics exposition carries the cache counter families.
func TestMetricsExposeCacheCounters(t *testing.T) {
	g, _, _, _ := gtest.Fig2()
	ts := startServer(t, structix.BuildOneIndex(g), server.Config{})
	defer ts.shutdown(t)
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := ts.cli.Query(ctx, "//b"); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Get(ts.url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, name := range []string{
		"structix_qcache_hits_total", "structix_qcache_misses_total",
		"structix_qcache_invalidated_total", "structix_qcache_entries",
		"structix_qcache_footprint_slots",
		"structix_qcache_hit_rate", "structix_compiled_programs",
	} {
		if !strings.Contains(text, name) {
			t.Errorf("/metrics missing %s", name)
		}
	}
}

func equalNodeIDs(a, b []graph.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
