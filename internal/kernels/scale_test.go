package kernels

import (
	"math"
	"testing"

	"repro/internal/statutil"
)

// TestMatrixIsPairwiseGaussian: every entry of the kernel matrix is the
// Gaussian of its two rows at the given scale, bit for bit, at a heuristic
// scale and at pinned ones — a retrain's kernel depends only on the window
// rows and τ.
func TestMatrixIsPairwiseGaussian(t *testing.T) {
	x := randMatrix(13, 40, 7)
	for _, tau := range []float64{ScaleHeuristic(x, 0.1), 3.5, 400} {
		k := Matrix(x, tau)
		for i := 0; i < x.Rows; i++ {
			for j := 0; j < x.Rows; j++ {
				if got, want := k.At(i, j), Gaussian(x.Row(i), x.Row(j), tau); got != want {
					t.Fatalf("tau %v: entry (%d,%d) = %v, Gaussian %v", tau, i, j, got, want)
				}
			}
		}
	}
}

// TestScaleHeuristicTracksNorms: τ is a variance of row norms, so scaling
// every row by c scales it by c², and replacing rows one at a time with ever
// larger ones moves it past a 10% tolerance — what the sliding predictor's
// drift guard watches for.
func TestScaleHeuristicTracksNorms(t *testing.T) {
	const d, n = 4, 25
	x := randMatrix(21, n, d)
	tau := ScaleHeuristic(x, 0.1)
	scaled := x.Clone()
	for i := range scaled.Data {
		scaled.Data[i] *= 3
	}
	if got := ScaleHeuristic(scaled, 0.1); math.Abs(got-9*tau) > 1e-12*9*tau {
		t.Fatalf("rows ×3: tau %v, want 9 × %v", got, tau)
	}

	r := statutil.NewRNG(21, "drift")
	scale := 1.0
	for step := 0; step < 200; step++ {
		scale *= 1.1
		row := x.Row(step % n)
		for j := range row {
			row[j] = scale * r.NormFloat64()
		}
		if math.Abs(ScaleHeuristic(x, 0.1)-tau) > 0.1*tau {
			return
		}
	}
	t.Fatal("the heuristic never moved 10% under norm inflation")
}
