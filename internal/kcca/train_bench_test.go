package kcca

import (
	"fmt"
	"testing"

	"repro/internal/obs"
	"repro/internal/testutil"
)

// BenchmarkTrainStock times kcca.Train on the daemon's own inputs — the
// first n stock queries' plan features — at the boot shape (n = 800) and the
// stock sliding window's (n = 500), and reports where the time went as
// custom metrics: each eigensolver phase (linalg.eigen.reduce, .accumulate,
// .ql), the kernel build and its centering, and each kcca.train stage, in ms
// per Train. Train runs one view on the caller, so the stages are its wall
// time.
func BenchmarkTrainStock(b *testing.B) {
	qs := testutil.StockQueries(b, testutil.StockTrain)
	for _, n := range []int{500, testutil.StockTrain} {
		x, _ := testutil.StockFeatures(qs[:n])
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			obs.Reset()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Train(x, DefaultOptions()); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			for _, stage := range []string{
				"linalg.eigen.reduce", "linalg.eigen.accumulate", "linalg.eigen.ql",
				"kernels.matrix", "kernels.center",
				"kcca.train.kernel", "kcca.train.eigen", "kcca.train.cca", "kcca.train.project",
			} {
				ms := obs.GetHistogram(stage+".seconds").Sum() * 1e3 / float64(b.N)
				b.ReportMetric(ms, stage+"-ms/op")
			}
		})
	}
}
