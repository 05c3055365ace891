package kcca

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/statutil"
	"repro/internal/testutil"
)

// Retraining-cost benchmarks: a full dense kcca.Train, and one steady-state
// retrain interval of the incremental retrainer. CI's bench-smoke job runs
// BenchmarkRetrainFull/n=200 and BenchmarkRetrainIncremental/n=500 only.
//
// Asymptotics per retrain with window N, feature dim d, reduced rank r ≤ 80:
//
//	full:        O(N²·d) kernel build + ≈ 9N³ dense eigensolve (per view)
//	incremental: O(N·d) kernel row patch per slid row + the same dense
//	             eigensolve on the maintained kernels (per view)
//
// plus the shared O(N·r²)-ish CCA/projection tail.

const benchD, benchE, benchTemplates = 12, 6, 24

// benchRows draws n rows of a synthetic low-rank workload (24 templates,
// jitter 1e-6) for BenchmarkRetrainFull.
func benchRows(n int) ([][]float64, [][]float64) {
	g := newTmplGen(statutil.NewRNG(int64(n), "retrain-bench"), benchD, benchE, benchTemplates, 1e-6)
	xs := make([][]float64, 0, n)
	ys := make([][]float64, 0, n)
	for i := 0; i < n; i++ {
		x, y := g.pair(1)
		xs, ys = append(xs, x), append(ys, y)
	}
	return xs, ys
}

func BenchmarkRetrainFull(b *testing.B) {
	for _, n := range []int{200, 1000, 4000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			xs, ys := benchRows(n)
			x, y := denseOf(xs), denseOf(ys)
			opt := DefaultOptions()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Train(x, y, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRetrainIncremental times the incremental retrainer on the
// daemon's stream (testutil.StockQueries: TPC-DS-simulated plan features and
// performance vectors) at automatic rank (80). One op is one steady-state
// retrain interval: a 100-row slide through Replace, then Retrain. The
// TrainFull + Install that seeds the maintained kernels is untimed. n = 500
// is the stock window; 2600 and 4000 are where a window would have to grow
// before the retrain's cubic solve dominates a deployment.
//
//	go test -run '^$' -bench 'BenchmarkRetrainIncremental/n=(2600|4000)$' -benchtime 1x -timeout 60m ./internal/kcca
func BenchmarkRetrainIncremental(b *testing.B) {
	const slide = 100
	for _, n := range []int{500, 2600, 4000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			x, y := testutil.StockFeatures(testutil.StockQueries(b, n+8*slide))
			inc := NewIncremental(DefaultOptions(), n)
			for i := 0; i < n; i++ {
				inc.Append(x.Row(i), y.Row(i))
			}
			_, seed, err := inc.TrainFull(x.SliceRows(0, n), y.SliceRows(0, n))
			if err != nil {
				b.Fatal(err)
			}
			inc.Install(seed)
			// The window's rows in slot order, kept for the full retrain a
			// τ-drift would force.
			window := make([]int, n)
			for i := range window {
				window[i] = i
			}
			next, slot, fallbacks := n, 0, 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < slide; j++ {
					row := next % x.Rows
					inc.Replace(slot, x.Row(row), y.Row(row))
					window[slot] = row
					next++
					slot = (slot + 1) % n
				}
				_, err := inc.Retrain()
				if errors.Is(err, ErrNeedFull) {
					// τ drifted: the production loop pays a full rebuild here.
					// Count it and keep the cost in the measurement — hiding it
					// would overstate the incremental path.
					fallbacks++
					_, seed, ferr := inc.TrainFull(x.SelectRows(window), y.SelectRows(window))
					if ferr != nil {
						b.Fatal(ferr)
					}
					inc.Install(seed)
				} else if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(fallbacks)/float64(b.N), "full-fallbacks/op")
		})
	}
}
