package kcca

import (
	"fmt"
	"testing"

	"repro/internal/obs"
	"repro/internal/testutil"
)

// BenchmarkTrainStock times kcca.Train on the daemon's own inputs — the
// first n stock queries' plan and performance features — at the boot shape
// (n = 800) and the stock sliding window's (n = 500), and reports where the
// time went as custom metrics: each eigensolver phase (linalg.eigen.reduce,
// .accumulate, .ql) and each kcca.train stage, in ms per Train. Both views
// solve at once as two parallel tasks, so the eigensolver phases add up the
// two views' wall times.
func BenchmarkTrainStock(b *testing.B) {
	qs := testutil.StockQueries(b, testutil.StockTrain)
	for _, n := range []int{500, testutil.StockTrain} {
		x, y := testutil.StockFeatures(qs[:n])
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			obs.Reset()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Train(x, y, DefaultOptions()); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			for _, stage := range []string{
				"linalg.eigen.reduce", "linalg.eigen.accumulate", "linalg.eigen.ql",
				"kernels.matrix", "kernels.center", "linalg.svd",
				"kcca.train.kernel", "kcca.train.eigen", "kcca.train.cca", "kcca.train.project",
			} {
				ms := obs.GetHistogram(stage+".seconds").Sum() * 1e3 / float64(b.N)
				b.ReportMetric(ms, stage+"-ms/op")
			}
		})
	}
}
