package kernels

import (
	"math"
	"testing"

	"repro/internal/linalg"
	"repro/internal/statutil"
)

// matrixPairwise is the kernel matrix as Matrix computed it before the
// blocked rows: one Gaussian per pair above the diagonal, mirrored below it,
// the diagonal set to 1.
func matrixPairwise(x *linalg.Matrix, tau float64) *linalg.Matrix {
	n := x.Rows
	k := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		k.Set(i, i, 1)
		ri := x.Row(i)
		for j := i + 1; j < n; j++ {
			v := Gaussian(ri, x.Row(j), tau)
			k.Set(i, j, v)
			k.Set(j, i, v)
		}
	}
	return k
}

// TestMatrixIsPairwiseGaussian: every entry of the kernel matrix is the
// Gaussian of its two rows at the given scale, bit for bit, at a heuristic
// scale and at pinned ones — a retrain's kernel depends only on the window
// rows and τ. The row counts cross the 16-point blocks Matrix scores a row
// by (15 is less than one, 17 and 33 leave a one-point tail, 257 is the
// stock window's order of size), the feature counts span the performance
// view (6), the plan view (24) and more. Row 0 sits far from the rest and a
// duplicate of row 1 is appended, so the matrix holds kernel values that
// underflow to +0 at the pinned scales (the heuristic one grows with row 0's
// norm) and off-diagonal ones that are exactly 1.
func TestMatrixIsPairwiseGaussian(t *testing.T) {
	for _, n := range []int{1, 2, 15, 16, 17, 33, 257} {
		for _, d := range []int{1, 6, 24, 40} {
			x := randMatrix(int64(13*n+d), n, d)
			for j := range x.Row(0) {
				x.Row(0)[j] += 1e3
			}
			if n > 2 {
				copy(x.Row(n-1), x.Row(1))
			}
			heuristic := ScaleHeuristic(x, 0.1)
			for _, tau := range []float64{heuristic, 3.5, 400} {
				got, want := Matrix(x, tau), matrixPairwise(x, tau)
				zeros := 0
				for i := 0; i < n; i++ {
					if got.At(i, i) != 1 {
						t.Fatalf("n=%d d=%d tau %v: diagonal (%d,%d) = %v, want 1", n, d, tau, i, i, got.At(i, i))
					}
					for j := 0; j < n; j++ {
						g := got.At(i, j)
						if math.Float64bits(g) != math.Float64bits(want.At(i, j)) {
							t.Fatalf("n=%d d=%d tau %v: entry (%d,%d) = %v, Gaussian %v", n, d, tau, i, j, g, want.At(i, j))
						}
						if math.Float64bits(g) != math.Float64bits(got.At(j, i)) {
							t.Fatalf("n=%d d=%d tau %v: entry (%d,%d) = %v but (%d,%d) = %v", n, d, tau, i, j, g, j, i, got.At(j, i))
						}
						if g == 0 {
							zeros++
						}
					}
				}
				if n > 1 && tau != heuristic && zeros == 0 {
					t.Fatalf("n=%d d=%d tau %v: no kernel value underflowed to +0", n, d, tau)
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
