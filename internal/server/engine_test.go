package server

import (
	"context"
	"testing"

	"structix"
	"structix/internal/gtest"
)

// TestEngineRunHitAllocs bounds the hot read, engine.run on a one-shard
// store whose result cache already holds the answer (the read_hot
// benchmark's path): a cache probe and nothing else, so it allocates
// nothing — not the merge scratch of a sharded gather, nor a closure for
// the per-shard evaluation the gather is handed.
func TestEngineRunHitAllocs(t *testing.T) {
	g, _, _, _ := gtest.Fig2()
	e := newEngine(structix.NewDB(structix.BuildOneIndex(g)))
	snap := e.store.Snapshot()
	ctx := context.Background()
	for _, expr := range []string{"/a/b", "//c", "/a/*"} {
		c, err := e.program(expr)
		if err != nil {
			t.Fatal(err)
		}
		if nodes, cached, err := e.run(ctx, c, snap); err != nil || cached || len(nodes) == 0 {
			t.Fatalf("%s: first run = %v, cached %v, %v; want a fresh non-empty result", expr, nodes, cached, err)
		}
		if _, cached, err := e.run(ctx, c, snap); err != nil || !cached {
			t.Fatalf("%s: second run cached %v, %v; want a cache hit", expr, cached, err)
		}
		if n := testing.AllocsPerRun(200, func() { e.run(ctx, c, snap) }); n != 0 {
			t.Errorf("%s: warm cache-hit engine.run allocates %.1f/op, want 0", expr, n)
		}
	}
}
