// A long-lived "index server": load a persisted database (or bootstrap
// one), serve concurrent path queries while an update stream mutates the
// data, and persist the maintained state on the way out — the operational
// loop incremental maintenance exists for. No rebuild happens anywhere in
// this program.
package main

import (
	"bytes"
	"fmt"
	"log"
	"sync"
	"sync/atomic"

	"structix"
)

func main() {
	// Bootstrap: generate a database, index it, persist it — the state a
	// real deployment would have on disk.
	g := structix.GenerateXMark(structix.DefaultXMark(64, 1, 17))
	var disk bytes.Buffer
	if err := structix.SaveDatabase(&disk, &structix.Database{
		Graph: g,
		One:   structix.BuildOneIndex(g),
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("persisted bootstrap database: %d bytes\n", disk.Len())

	// "Restart": load and serve. The loaded index is ready for maintained
	// updates immediately — no reconstruction on startup.
	db, err := structix.LoadDatabase(bytes.NewReader(disk.Bytes()))
	if err != nil {
		log.Fatal(err)
	}
	idx := structix.NewDB(db.One)
	fmt.Printf("loaded: %d dnodes, 1-index %d inodes\n", db.Graph.NumNodes(), idx.Snapshot().Size())

	// The update stream (generated up front so it is valid against the
	// loaded graph).
	ops := structix.GenerateMixedOps(db.Graph, 400, 17)

	queries := []*structix.Path{
		structix.MustParsePath("//person/name"),
		structix.MustParsePath("//open_auction/bidder/personref/person"),
		structix.MustParsePath("/site/regions/*/item"),
	}

	var served, results atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				res := idx.Eval(queries[(r+i)%len(queries)])
				served.Add(1)
				results.Add(int64(len(res)))
			}
		}(r)
	}

	// The writer applies the stream through incremental maintenance while
	// queries keep flowing: each batch publishes a new immutable snapshot,
	// and readers never wait for one — the availability §7.1 argues
	// reconstruction cannot give.
	const batch = 50
	for i := 0; i < len(ops); i += batch {
		end := i + batch
		if end > len(ops) {
			end = len(ops)
		}
		if _, err := idx.ApplyScript(ops[i:end]); err != nil {
			log.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	fmt.Printf("served %d queries (%d total results) concurrently with %d updates\n",
		served.Load(), results.Load(), len(ops))
	// The readers are done, and Update holds the (only) shard's writer
	// lock: the live index may be inspected directly.
	if err := idx.Shard(0).Update(func(structix.Index) error {
		fmt.Printf("final index: %d inodes, minimal=%v, quality=%.2f%%\n",
			db.One.Size(), db.One.IsMinimal(), 100*db.One.Quality())
		return nil
	}); err != nil {
		log.Fatal(err)
	}

	// Persist the maintained state from the published snapshot — no lock
	// held for the write; the next restart resumes from here.
	disk.Reset()
	if err := structix.SaveSnapshot(&disk, idx.Snapshot().Shard(0)); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("persisted maintained database: %d bytes\n", disk.Len())
}
