// Command xsiserve serves a structural-index database over HTTP: lock-free
// path-expression queries off epoch snapshots, group-committed incremental
// updates journaled to a write-ahead log, admission control, metrics, and
// crash recovery — the serving shape incremental maintenance exists for
// (no rebuild anywhere).
//
// Usage:
//
//	xsiserve -data /var/lib/structix -addr :8080
//	xsiserve -data ./state -fsync always
//	xsiserve -xmark 64 -seed 7 -addr 127.0.0.1:8080
//	xsiserve -data ./replica -replica-of http://10.0.0.1:8080 -addr :8081
//	xsiserve -smoke
//	xsiserve -smoke-repl
//
// With -data the store is durable: structix.Open recovers the last
// snapshot plus the journal tail (discarding a torn tail frame if the
// previous process crashed), every committed update window is journaled
// before its clients are acknowledged, a background compactor keeps the
// journal short, and a clean shutdown seals the state into a fresh
// snapshot. A fresh -data directory is bootstrapped from -load (a
// SaveDatabase file) when given, else from a generated XMark-shaped
// dataset at -xmark scale. -fsync picks the journal fsync policy:
// "window" (default; one fsync per group-commit window, acknowledgments
// wait for it), "always", "interval" (a background fsync every 100ms),
// or "none". Snapshots freeze dense extents; the compressed extent codec
// is an index-level experiment (xsibench -exp scale), not a serving
// option.
//
// Without -data the store is in-memory (loaded from -load or generated)
// and its updates are gone at exit; -data owns the lifecycle end to end.
//
// With -replica-of the process serves as a read replica: it bootstraps
// from the leader's snapshot endpoint into -data, tails the leader's WAL
// stream into its own journal, serves the full read surface (queries may
// carry min_epoch for read-your-writes), and rejects writes with a 421
// naming the leader. Restarting a replica recovers locally and resumes
// the stream from its own seq; a replica that fell behind the leader's
// compacted journal re-bootstraps on the next start.
//
// -shards N partitions a new store's graph into N in-process shards, each
// with its own commit pipeline, epoch snapshots and — under -data — its
// own WAL directory (shard-00/, shard-01/, ...): writes to different
// shards commit independently, queries scatter-gather across all of them.
// A durable directory keeps the layout it was created with; leave -shards
// unset to open it as it is, or give the count it holds — any other count
// is refused. Node ids are striped across shards, so ids from a store of
// one width do not carry over to another.
//
// Endpoints:
//
//	POST /v1/query    {"expr":"//person/name","count_only":false,"limit":0}
//	POST /v1/update   {"ops":[{"op":"insert","u":1,"v":2,"kind":"idref"}]}
//	GET  /v1/stats    operational + durability counters (JSON)
//	GET  /healthz     liveness (503 while draining)
//	GET  /metrics     Prometheus text exposition
//	GET  /debug/pprof profiling
//
// -smoke runs the self-test: boot a durable store in a temp directory on
// an ephemeral loopback port, drive a client round trip (health, query,
// count, atomic update, typed batch rejection, durability stats), shut
// down gracefully, then reopen the directory and verify recovery
// reproduces the served state.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"structix"
	"structix/internal/server"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:8080", "listen address")
		data      = flag.String("data", "", "durable store directory (snapshots + write-ahead log)")
		fsync     = flag.String("fsync", "window", "journal fsync policy: always|window|interval|none")
		load      = flag.String("load", "", "bootstrap/load a persisted database (SaveDatabase format, gzip ok)")
		xmark     = flag.Int("xmark", 64, "XMark scale divisor for the bootstrap dataset (when no -load)")
		cyclicity = flag.Float64("cyclicity", 1, "bootstrap dataset cyclicity")
		seed      = flag.Int64("seed", 7, "bootstrap dataset seed")
		maxBatch  = flag.Int("maxbatch", 256, "close the commit window at this many pooled edge ops (else when the queue runs dry)")
		queue     = flag.Int("queue", 1024, "admission queue depth (full queue sheds updates with 429)")
		grace     = flag.Duration("grace", 10*time.Second, "shutdown grace period")
		shards    = flag.Int("shards", 0, "partition a new store's graph into this many in-process shards (default 1, or what -data holds)")
		replicaOf = flag.String("replica-of", "", "serve as a read replica streaming this leader's WAL (requires -data, -shards 1)")
		smoke     = flag.Bool("smoke", false, "run the self-test and exit")
		smokeRepl = flag.Bool("smoke-repl", false, "run the replication self-test (leader + 2 followers) and exit")
	)
	flag.Parse()

	if *shards < 0 {
		fmt.Fprintln(os.Stderr, "xsiserve: -shards must not be negative")
		os.Exit(2)
	}
	if *replicaOf != "" {
		// A replica's whole state comes from the leader: it needs its own
		// durable directory to journal into, and no bootstrap path applies.
		switch {
		case *data == "":
			fmt.Fprintln(os.Stderr, "xsiserve: -replica-of requires -data (the replica journals locally)")
			os.Exit(2)
		case *shards > 1:
			fmt.Fprintln(os.Stderr, "xsiserve: -replica-of supports only -shards 1 (replicate each shard process separately)")
			os.Exit(2)
		case *load != "":
			fmt.Fprintln(os.Stderr, "xsiserve: -replica-of bootstraps from the leader; -load does not apply")
			os.Exit(2)
		}
	}

	if *smoke {
		if err := runSmoke(); err != nil {
			fmt.Fprintf(os.Stderr, "xsiserve: smoke: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("xsiserve: smoke ok")
		return
	}
	if *smokeRepl {
		if err := runSmokeRepl(); err != nil {
			fmt.Fprintf(os.Stderr, "xsiserve: smoke-repl: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("xsiserve: smoke-repl ok")
		return
	}

	db, err := openStore(*data, *fsync, *load, *replicaOf, *xmark, *cyclicity, *seed, *shards)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xsiserve: %v\n", err)
		os.Exit(1)
	}
	if *replicaOf != "" {
		sh := db.Shard(0)
		fmt.Printf("xsiserve: read replica of %s, streaming from seq %d (writes redirect to the leader)\n",
			sh.LeaderURL(), sh.Seq()+1)
	}
	snap := db.Snapshot()
	nodes := 0
	for s := 0; s < snap.NumShards(); s++ {
		nodes += snap.Shard(s).Data().NumNodes()
	}
	nodes -= snap.NumShards() - 1 // the root replica counts once
	fmt.Printf("xsiserve: serving %d dnodes, 1-index %d inodes on %s", nodes, snap.Size(), *addr)
	if n := db.NumShards(); n > 1 {
		fmt.Printf(" (%d shards)", n)
	}
	fmt.Println()
	if ds := db.Stats(); ds.Durable {
		fmt.Printf("xsiserve: durable store %s (fsync=%s)", ds.Dir, ds.Policy)
		if ds.ReplayedRecords > 0 || ds.TornBytesDropped > 0 {
			fmt.Printf(", recovered %d journal records (%d torn bytes dropped)", ds.ReplayedRecords, ds.TornBytesDropped)
		}
		fmt.Println()
	}

	srv := server.New(db, server.Config{
		MaxBatch:   *maxBatch,
		QueueDepth: *queue,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xsiserve: %v\n", err)
		os.Exit(1)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "xsiserve: %v\n", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	fmt.Println("xsiserve: draining...")
	shCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := srv.Shutdown(shCtx); err != nil {
		fmt.Fprintf(os.Stderr, "xsiserve: shutdown: %v\n", err)
		os.Exit(1)
	}
	if err := db.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "xsiserve: close: %v\n", err)
		os.Exit(1)
	}
	if *data != "" {
		fmt.Printf("xsiserve: sealed store %s\n", *data)
	}
}

// openStore builds the store: durable over -data (structix.Open, which
// reads the directory's layout, or structix.OpenFollower for a replica)
// or in-memory from -load / a generated dataset.
func openStore(data, fsync, load, replicaOf string, xmark int, cyclicity float64, seed int64, shards int) (*structix.DB, error) {
	bootstrap := func() (*structix.Database, error) {
		if load != "" {
			return loadFile(load)
		}
		g := structix.GenerateXMark(structix.DefaultXMark(xmark, cyclicity, seed))
		return &structix.Database{Graph: g}, nil
	}
	if data != "" {
		policy, err := structix.ParseSyncPolicy(fsync)
		if err != nil {
			return nil, err
		}
		opts := structix.Options{Sync: policy}
		if replicaOf != "" {
			return structix.OpenFollower(data, replicaOf, opts)
		}
		opts.Shards, opts.Bootstrap = shards, bootstrap
		return structix.Open(data, opts)
	}
	base, err := bootstrap()
	if err != nil {
		return nil, err
	}
	if shards > 1 {
		db, _ := structix.NewShardedDB(base.Graph, shards)
		return db, nil
	}
	idx := base.One
	if idx == nil {
		idx = structix.BuildOneIndex(base.Graph)
	}
	return structix.NewDB(idx), nil
}

func loadFile(path string) (*structix.Database, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return structix.LoadDatabaseAuto(f)
}
