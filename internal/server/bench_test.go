package server_test

import (
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"structix"
	"structix/internal/client"
	"structix/internal/graph"
	"structix/internal/opscript"
	"structix/internal/server"
)

// BenchmarkUpdateClosedLoop is the commit pipeline's concurrency table
// (DESIGN §6): N closed-loop writers, each on its own keep-alive
// connection, alternately insert and delete their own 8 IDREF edges on a
// durable fsync=window store. One iteration is one acknowledged request;
// req/s is the aggregate rate, ops/window the mean group-commit size the
// queue-drain window rule produced at that concurrency. The generator
// shares the machine with the server, as in bench/.
//
//	go test -run '^$' -bench UpdateClosedLoop -benchtime 3s ./internal/server
func BenchmarkUpdateClosedLoop(b *testing.B) {
	const batch = 8
	for _, writers := range []int{1, 2, 8, 32} {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			g := structix.GenerateXMark(structix.DefaultXMark(8, 0, 1))
			pairs := freshPairs(g, batch*writers, 3)
			db, err := structix.Open(filepath.Join(b.TempDir(), "store"), structix.Options{
				Sync:      structix.SyncWindow,
				Bootstrap: func() (*structix.Database, error) { return &structix.Database{Graph: g}, nil },
			})
			if err != nil {
				b.Fatalf("open store: %v", err)
			}
			ts := startServerOn(b, db, nil, server.Config{})
			b.Cleanup(func() {
				ts.shutdown(b)
				if err := db.Close(); err != nil {
					b.Errorf("close store: %v", err)
				}
			})

			ctx := context.Background()
			var next atomic.Int64
			var wg sync.WaitGroup
			errs := make([]error, writers)
			b.ResetTimer()
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					tr := &http.Transport{}
					defer tr.CloseIdleConnections()
					cli := client.NewWithHTTPClient(ts.url, &http.Client{Transport: tr})
					ins := make([]opscript.Op, batch)
					del := make([]opscript.Op, batch)
					for i, p := range pairs[w*batch : (w+1)*batch] {
						ins[i] = opscript.Op{Kind: opscript.Insert, U: p[0], V: p[1], Edge: graph.IDRef}
						del[i] = opscript.Op{Kind: opscript.Delete, U: p[0], V: p[1]}
					}
					for i := 0; next.Add(1) <= int64(b.N); i++ {
						ops := ins
						if i%2 == 1 {
							ops = del
						}
						if _, err := cli.Update(ctx, ops); err != nil {
							errs[w] = err
							return
						}
					}
				}(w)
			}
			wg.Wait()
			b.StopTimer()
			for w, err := range errs {
				if err != nil {
					b.Fatalf("writer %d: %v", w, err)
				}
			}
			st, err := ts.cli.Stats(ctx)
			if err != nil {
				b.Fatalf("stats: %v", err)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
			b.ReportMetric(st.MeanBatchSize, "ops/window")
		})
	}
}
