package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"structix"
	"structix/internal/client"
	"structix/internal/graph"
	"structix/internal/opscript"
	"structix/internal/server"
	"structix/internal/shard"
)

// runSmoke is the end-to-end self-test behind -smoke: a durable store in
// a temp directory on an ephemeral loopback port, full client round trip,
// graceful shutdown, then a recovery pass — reopen the directory and
// check the store answers exactly what it served before exit. It
// exercises exactly the path `make serve-smoke` gates in CI.
func runSmoke() error {
	dir, err := os.MkdirTemp("", "xsiserve-smoke-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	db, err := structix.Open(dir, structix.Options{
		Sync: structix.SyncAlways,
		Bootstrap: func() (*structix.Database, error) {
			return &structix.Database{Graph: structix.GenerateXMark(structix.DefaultXMark(256, 1, 42))}, nil
		},
	})
	if err != nil {
		return fmt.Errorf("open: %w", err)
	}
	srv := server.New(db, server.Config{})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c := client.New("http://" + ln.Addr().String())

	if err := c.Health(ctx); err != nil {
		return fmt.Errorf("health: %w", err)
	}

	const expr = "//person/name"
	res, err := c.Query(ctx, expr)
	if err != nil {
		return fmt.Errorf("query %s: %w", expr, err)
	}
	n, err := c.Count(ctx, expr)
	if err != nil {
		return fmt.Errorf("count %s: %w", expr, err)
	}
	if n != res.Count || n != len(res.Nodes) {
		return fmt.Errorf("count mismatch: query says %d (%d nodes), count says %d",
			res.Count, len(res.Nodes), n)
	}
	if n == 0 {
		return fmt.Errorf("query %s matched nothing on the smoke dataset", expr)
	}

	// Atomic update: link two result nodes with an idref edge, then undo it.
	u, v := res.Nodes[0], res.Nodes[len(res.Nodes)-1]
	if u == v {
		return fmt.Errorf("smoke dataset too small: single-node result")
	}
	up, err := c.Update(ctx, []opscript.Op{{Kind: opscript.Insert, U: u, V: v, Edge: graph.IDRef}})
	if err != nil {
		return fmt.Errorf("insert %d->%d: %w", u, v, err)
	}
	if up.Inserted != 1 {
		return fmt.Errorf("insert reported %d insertions, want 1", up.Inserted)
	}

	// Typed rejection: inserting the same edge again must surface the
	// in-process *graph.BatchError with the right sentinel and op index.
	_, err = c.Update(ctx, []opscript.Op{{Kind: opscript.Insert, U: u, V: v, Edge: graph.IDRef}})
	var be *graph.BatchError
	if !errors.As(err, &be) {
		return fmt.Errorf("duplicate insert: got %v, want *graph.BatchError", err)
	}
	if !errors.Is(be, graph.ErrEdgeExists) || be.OpIndex != 0 {
		return fmt.Errorf("duplicate insert: got op %d cause %v, want op 0 ErrEdgeExists", be.OpIndex, be.Err)
	}

	if err := c.DeleteEdge(ctx, u, v); err != nil {
		return fmt.Errorf("delete %d->%d: %w", u, v, err)
	}

	st, err := c.Stats(ctx)
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	if st.Updates < 3 || st.Queries < 2 {
		return fmt.Errorf("stats undercount: %d updates, %d queries", st.Updates, st.Queries)
	}
	if !st.Durable || st.FsyncPolicy != "always" {
		return fmt.Errorf("stats report durable=%v policy=%q, want a durable fsync=always store",
			st.Durable, st.FsyncPolicy)
	}
	// Every acknowledged update is on disk under fsync=always: the commit
	// epoch (2 committed updates) must be covered by the durable seq.
	if st.DurableSeq < st.AppliedSeq || st.AppliedSeq == 0 {
		return fmt.Errorf("durability lag under fsync=always: applied %d, durable %d",
			st.AppliedSeq, st.DurableSeq)
	}
	epoch, err := c.ServerEpoch(ctx)
	if err != nil {
		return fmt.Errorf("server epoch: %w", err)
	}
	if epoch != st.Epoch {
		return fmt.Errorf("ServerEpoch says %d, stats say %d", epoch, st.Epoch)
	}

	// Graceful shutdown; Serve must return cleanly, Close seals the store.
	shCtx, shCancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer shCancel()
	if err := srv.Shutdown(shCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("serve: %w", err)
	}
	if err := db.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}

	// Recovery: reopening the directory must reproduce the served state
	// and pass full invariant checking.
	db2, err := structix.Open(dir, structix.Options{})
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	defer db2.Close()
	if err := db2.Validate(); err != nil {
		return fmt.Errorf("recovered store invalid: %w", err)
	}
	p, err := structix.ParsePath(expr)
	if err != nil {
		return err
	}
	if got := len(db2.Eval(p)); got != n {
		return fmt.Errorf("recovered store answers %d for %s, served answer was %d", got, expr, n)
	}
	fmt.Printf("xsiserve: smoke: %d nodes, %s -> %d matches, store %s recovers\n",
		db2.Snapshot().Shard(0).Data().NumNodes(), expr, n, dir)
	return runSmokeSharded()
}

// smokeForest merges several small XMark instances under one root so the
// bootstrap splitter has components to spread across shards.
func smokeForest(instances, scale int, seed int64) *structix.Graph {
	g := graph.New()
	root := g.AddRoot()
	for i := 0; i < instances; i++ {
		p := structix.GenerateXMark(structix.DefaultXMark(scale, 1, seed+int64(i)))
		proot := p.Root()
		idmap := make([]graph.NodeID, p.MaxNodeID()+1)
		p.EachNode(func(v graph.NodeID) {
			if v == proot {
				idmap[v] = root
				return
			}
			idmap[v] = g.AddNode(p.LabelName(v))
			if val := p.Value(v); val != "" {
				g.SetValue(idmap[v], val)
			}
		})
		p.EachEdge(func(u, v graph.NodeID, k graph.EdgeKind) {
			if err := g.AddEdge(idmap[u], idmap[v], k); err != nil {
				panic(fmt.Sprintf("smoke forest merge: %v", err))
			}
		})
	}
	return g
}

// runSmokeSharded repeats the boot/query/update/recover loop against a
// 4-shard durable store: scatter-gather query, same-shard update, typed
// cross-shard rejection, per-shard stats, reopen at the stored width.
func runSmokeSharded() error {
	dir, err := os.MkdirTemp("", "xsiserve-smoke-shard-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	const shards = 4
	sdb, err := structix.Open(dir, structix.Options{
		Sync:   structix.SyncAlways,
		Shards: shards,
		Bootstrap: func() (*structix.Database, error) {
			return &structix.Database{Graph: smokeForest(6, 512, 43)}, nil
		},
	})
	if err != nil {
		return fmt.Errorf("sharded open: %w", err)
	}
	srv := server.New(sdb, server.Config{})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c := client.New("http://" + ln.Addr().String())
	if err := c.Health(ctx); err != nil {
		return fmt.Errorf("sharded health: %w", err)
	}

	const expr = "//person/name"
	res, err := c.Query(ctx, expr)
	if err != nil {
		return fmt.Errorf("sharded query %s: %w", expr, err)
	}
	if res.Count == 0 {
		return fmt.Errorf("sharded query %s matched nothing", expr)
	}

	// Same-shard pair (equal id residues): must commit and undo cleanly.
	// Cross-shard pair: must be refused with the shard sentinel, op 0.
	var su, sv, cu, cv graph.NodeID = -1, -1, -1, -1
	for _, a := range res.Nodes {
		for _, b := range res.Nodes {
			if a == b {
				continue
			}
			if a%shards == b%shards && su < 0 {
				su, sv = a, b
			}
			if a%shards != b%shards && cu < 0 {
				cu, cv = a, b
			}
		}
	}
	if su < 0 || cu < 0 {
		return fmt.Errorf("sharded smoke dataset has no same+cross shard pairs among %d matches", len(res.Nodes))
	}
	if _, err := c.Update(ctx, []opscript.Op{{Kind: opscript.Insert, U: su, V: sv, Edge: graph.IDRef}}); err != nil {
		return fmt.Errorf("sharded insert %d->%d: %w", su, sv, err)
	}
	if err := c.DeleteEdge(ctx, su, sv); err != nil {
		return fmt.Errorf("sharded delete %d->%d: %w", su, sv, err)
	}
	_, err = c.Update(ctx, []opscript.Op{{Kind: opscript.Insert, U: cu, V: cv, Edge: graph.IDRef}})
	var be *graph.BatchError
	if !errors.As(err, &be) || !errors.Is(be, shard.ErrCrossShard) || be.OpIndex != 0 {
		return fmt.Errorf("cross-shard insert %d->%d: got %v, want op 0 ErrCrossShard", cu, cv, err)
	}

	st, err := c.Stats(ctx)
	if err != nil {
		return fmt.Errorf("sharded stats: %w", err)
	}
	if st.Shards != shards || len(st.ShardStats) != shards {
		return fmt.Errorf("stats report %d shards (%d detailed), want %d", st.Shards, len(st.ShardStats), shards)
	}

	shCtx, shCancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer shCancel()
	if err := srv.Shutdown(shCtx); err != nil {
		return fmt.Errorf("sharded shutdown: %w", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("sharded serve: %w", err)
	}
	if err := sdb.Close(); err != nil {
		return fmt.Errorf("sharded close: %w", err)
	}

	// Reopen without naming the width: the store remembers its shard count.
	sdb2, err := structix.Open(dir, structix.Options{})
	if err != nil {
		return fmt.Errorf("sharded reopen: %w", err)
	}
	defer sdb2.Close()
	if sdb2.NumShards() != shards {
		return fmt.Errorf("reopened store has %d shards, want %d", sdb2.NumShards(), shards)
	}
	if err := sdb2.Validate(); err != nil {
		return fmt.Errorf("recovered sharded store invalid: %w", err)
	}
	p, err := structix.ParsePath(expr)
	if err != nil {
		return err
	}
	if got := len(sdb2.Eval(p)); got != res.Count {
		return fmt.Errorf("recovered sharded store answers %d for %s, served answer was %d", got, expr, res.Count)
	}
	fmt.Printf("xsiserve: smoke: sharded(%d): %s -> %d matches, store %s recovers\n",
		shards, expr, res.Count, dir)
	return nil
}
