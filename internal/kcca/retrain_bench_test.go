package kcca

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/linalg"
	"repro/internal/statutil"
)

// BenchmarkRetrainFull times a dense kcca.Train — what every sliding-window
// retrain runs. CI's bench-smoke job runs n=200 only; the daemon-shaped
// retrain, through the whole observe path, is core's BenchmarkRetrainStock.
//
// Asymptotics per retrain with window N, feature dim d, reduced rank r ≤ 80:
// an O(N²·d) kernel build + ≈ 9N³ dense eigensolve per view, plus the shared
// O(N·r²)-ish CCA/projection tail.

const benchD, benchE, benchTemplates = 12, 6, 24

// tmplGen generates template-clustered workload rows, the regime the paper
// trains on: queries instantiate a modest number of templates, so feature
// vectors cluster around per-template centers (with per-instance jitter from
// differing constants), and template magnitudes spread over orders of
// magnitude like cardinality features. The resulting kernel spectrum has one
// dominant eigenvalue per template and then decays.
type tmplGen struct {
	r       *statutil.RNG
	centers [][]float64
	d, e    int
	jitter  float64
}

// newTmplGen builds a generator with the given per-instance jitter.
func newTmplGen(r *statutil.RNG, d, e, templates int, jitter float64) *tmplGen {
	g := &tmplGen{r: r, d: d, e: e, jitter: jitter}
	for k := 0; k < templates; k++ {
		mag := 2 * math.Exp(0.6*r.NormFloat64())
		mu := make([]float64, d)
		for i := range mu {
			mu[i] = mag * r.NormFloat64()
		}
		g.centers = append(g.centers, mu)
	}
	return g
}

// pair draws one correlated (x, y) row pair: x jitters around a template
// center, y is a noisy linear image of x so CCA has real structure to find.
func (g *tmplGen) pair() ([]float64, []float64) {
	mu := g.centers[g.r.Intn(len(g.centers))]
	x := make([]float64, g.d)
	for i := range x {
		x[i] = mu[i] + g.jitter*g.r.NormFloat64()
	}
	y := make([]float64, g.e)
	for k := range y {
		s := 0.0
		for i := k; i < g.d; i += g.e {
			s += x[i]
		}
		y[k] = s + g.jitter*g.r.NormFloat64()
	}
	return x, y
}

// benchViews draws n rows of a synthetic low-rank workload (24 templates,
// jitter 1e-6).
func benchViews(n int) (x, y *linalg.Matrix) {
	g := newTmplGen(statutil.NewRNG(int64(n), "retrain-bench"), benchD, benchE, benchTemplates, 1e-6)
	x, y = linalg.NewMatrix(n, benchD), linalg.NewMatrix(n, benchE)
	for i := 0; i < n; i++ {
		xr, yr := g.pair()
		copy(x.Row(i), xr)
		copy(y.Row(i), yr)
	}
	return x, y
}

func BenchmarkRetrainFull(b *testing.B) {
	for _, n := range []int{200, 1000, 4000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			x, y := benchViews(n)
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
