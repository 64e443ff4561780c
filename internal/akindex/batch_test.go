package akindex

import (
	"strconv"
	"testing"

	"structix/internal/datagen"
	"structix/internal/gtest"
)

// BenchmarkApplyBatchXMark is the A(3) maintenance kernel under the
// serving benchmark's write traffic — the case oneindex's benchmark of the
// same name runs: 8-op batches of absent person→open_auction IDREF edges on
// XMark (cyclicity 1), every batch inserted and then every batch deleted,
// after one warm pass. It reports the time per batch (us/batch) on
// xmark-f1 and, unless -short, xmark-f2.
func BenchmarkApplyBatchXMark(b *testing.B) {
	for _, f := range []int{1, 2} {
		if f > 1 && testing.Short() {
			continue
		}
		g := datagen.XMark(datagen.XMarkFactor(f, 1, 1))
		x := Build(g, 3)
		seq := gtest.XMarkEdgeBatches(g, 16, 8, 1)
		run := func(b *testing.B) {
			for _, ops := range seq {
				if err := x.ApplyBatch(ops); err != nil {
					b.Fatal(err)
				}
			}
		}
		run(b)
		b.Run("f"+strconv.Itoa(f), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				run(b)
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(seq)), "us/batch")
		})
	}
}
