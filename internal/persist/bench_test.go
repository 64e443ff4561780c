package persist

import (
	"bytes"
	"compress/gzip"
	"runtime"
	"strconv"
	"testing"
	"time"

	"structix/internal/datagen"
	"structix/internal/oneindex"
)

// BenchmarkLoad is recovery's load of a compressed snapshot — the file
// Open reads back — of a freshly built xmark-f1 and, unless -short,
// xmark-f2, split into its two stages: decode (gunzip and gob into
// columns) and build (the checks, the graph and the 1-index). Each stage
// reports its ns and allocated bytes per load, so a change to the load
// decomposes by stage.
func BenchmarkLoad(b *testing.B) {
	for _, f := range []int{1, 2} {
		if f > 1 && testing.Short() {
			continue
		}
		var raw []byte
		b.Run("f"+strconv.Itoa(f), func(b *testing.B) {
			if raw == nil {
				g := datagen.XMark(datagen.XMarkFactor(f, 1, 1))
				var buf bytes.Buffer
				if err := SaveSnapshotCompressed(&buf, oneindex.Build(g).Freeze(g.Freeze())); err != nil {
					b.Fatal(err)
				}
				raw = buf.Bytes()
				b.ResetTimer()
			}
			var decode, build time.Duration
			var decodeB, buildB uint64
			var m0, m1, m2 runtime.MemStats
			for i := 0; i < b.N; i++ {
				runtime.ReadMemStats(&m0)
				t0 := time.Now()
				zr, err := gzip.NewReader(bytes.NewReader(raw))
				if err != nil {
					b.Fatal(err)
				}
				s, err := decodeDatabase(zr)
				if err != nil {
					b.Fatal(err)
				}
				t1 := time.Now()
				runtime.ReadMemStats(&m1)
				if _, err := s.build(); err != nil {
					b.Fatal(err)
				}
				t2 := time.Now()
				runtime.ReadMemStats(&m2)
				decode, build = decode+t1.Sub(t0), build+t2.Sub(t1)
				decodeB, buildB = decodeB+m1.TotalAlloc-m0.TotalAlloc, buildB+m2.TotalAlloc-m1.TotalAlloc
			}
			n := float64(b.N)
			b.ReportMetric(float64(decode.Nanoseconds())/n, "decode-ns/op")
			b.ReportMetric(float64(build.Nanoseconds())/n, "build-ns/op")
			b.ReportMetric(float64(decodeB)/n, "decode-B/op")
			b.ReportMetric(float64(buildB)/n, "build-B/op")
		})
	}
}
