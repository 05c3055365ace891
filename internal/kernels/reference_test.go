package kernels

import (
	"math"
	"testing"

	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/statutil"
	"repro/internal/testutil"
)

// The kernel matrix, the cross vector and the centering are held bit for bit
// to their definitions: Gaussian of two rows, and the out-of-place centering
// formula.

func randMatrix(seed int64, r, c int) *linalg.Matrix {
	rng := statutil.NewRNG(seed, "kernels-equiv")
	m := linalg.NewMatrix(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64() * 5
	}
	return m
}

// TestCrossVectorMatchesGaussian holds the cross vector to Gaussian itself,
// element by element: it scores sixteen points per pass on AVX2 (the
// suite runs again with the kernels off), and a point count that is not a
// multiple of that finishes through a one-point loop.
func TestCrossVectorMatchesGaussian(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 17, 513, 3000} {
		x := randMatrix(7, n, 12)
		q := randMatrix(8, 1, 12).Row(0)
		tau := ScaleHeuristic(x, 0.1)
		got := CrossVectorColsInto(make([]float64, n), x.T(), q, tau)
		for i, v := range got {
			if want := Gaussian(x.Row(i), q, tau); v != want {
				t.Fatalf("n=%d: out[%d] = %v, Gaussian %v", n, i, v, want)
			}
		}
	}
}

// TestCenterMatchesFormula holds the in-place centering to the out-of-place
// formula, element for element.
func TestCenterMatchesFormula(t *testing.T) {
	x := randMatrix(9, 201, 7)
	k := Matrix(x, ScaleHeuristic(x, 0.1))

	n := k.Rows
	wantRM := make([]float64, n)
	for i := range wantRM {
		wantRM[i] = linalg.Mean(k.Row(i))
	}
	wantGM := linalg.Mean(wantRM)
	wantC := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			wantC.Set(i, j, k.At(i, j)-wantRM[i]-wantRM[j]+wantGM)
		}
	}

	gotC := k.Clone()
	gotRM, gotGM := Center(gotC)
	if gotGM != wantGM {
		t.Fatalf("grand mean %v, formula %v", gotGM, wantGM)
	}
	for i := range gotRM {
		if gotRM[i] != wantRM[i] {
			t.Fatalf("row mean %d = %v, formula %v", i, gotRM[i], wantRM[i])
		}
	}
	for i, v := range gotC.Data {
		if v != wantC.Data[i] {
			t.Fatalf("centered element %d = %v, formula %v", i, v, wantC.Data[i])
		}
	}
}

// TestCenteredMatrixIsCenterOfMatrix: CenteredMatrix is Center(Matrix(x,
// tau)) bit for bit — the matrix, the row means and the grand mean — at row
// counts that cross the 16-row strips its row means are taken by.
func TestCenteredMatrixIsCenterOfMatrix(t *testing.T) {
	for _, n := range []int{1, 2, 15, 16, 17, 33, 257} {
		for _, d := range []int{1, 6, 24} {
			x := randMatrix(int64(7*n+d), n, d)
			tau := ScaleHeuristic(x, 0.1)
			want := Matrix(x, tau)
			wantRM, wantGM := Center(want)
			got, gotRM, gotGM := CenteredMatrix(x, tau)
			if math.Float64bits(gotGM) != math.Float64bits(wantGM) {
				t.Fatalf("n=%d d=%d: grand mean %v, Center %v", n, d, gotGM, wantGM)
			}
			for i, v := range wantRM {
				if math.Float64bits(gotRM[i]) != math.Float64bits(v) {
					t.Fatalf("n=%d d=%d: row mean %d = %v, Center %v", n, d, i, gotRM[i], v)
				}
			}
			for i, v := range want.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(v) {
					t.Fatalf("n=%d d=%d: element %d = %v, Center %v", n, d, i, got.Data[i], v)
				}
			}
		}
	}
}

// BenchmarkCrossVector is the cross-kernel at the daemon's shape (800
// training rows × 24 plan features): one Gaussian per row, and the predict
// path's feature-major form on the AVX2 kernels (where the host has them) and
// on the portable loops.
func BenchmarkCrossVector(b *testing.B) {
	x := randMatrix(11, 800, 24)
	q := randMatrix(12, 1, 24).Row(0)
	tau := ScaleHeuristic(x, 0.1)
	out := make([]float64, x.Rows)
	b.Run("Gaussian", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for r := range out {
				out[r] = Gaussian(x.Row(r), q, tau)
			}
		}
	})
	xT := x.T()
	cols := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			CrossVectorColsInto(out, xT, q, tau)
		}
	}
	b.Run("CrossVectorColsInto", cols)
	defer linalg.SetVectorKernels(linalg.SetVectorKernels(false))
	b.Run("CrossVectorColsIntoPortable", cols)
}

// BenchmarkCenteredMatrix is the training kernel at the daemon's boot shape
// (the 800 stock queries' plan features), centered: Matrix then Center,
// which reads the finished matrix twice, against CenteredMatrix, which takes
// the row means strip by strip while each strip is in cache. It reports
// both timers in ms per op: the row means move from kernels.center to
// kernels.matrix.
func BenchmarkCenteredMatrix(b *testing.B) {
	x, _ := testutil.StockFeatures(testutil.StockQueries(b, testutil.StockTrain))
	tau := ScaleHeuristic(x, 0.1)
	for _, bc := range []struct {
		name string
		fn   func()
	}{
		{"MatrixThenCenter", func() { Center(Matrix(x, tau)) }},
		{"CenteredMatrix", func() { CenteredMatrix(x, tau) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			obs.Reset()
			for i := 0; i < b.N; i++ {
				bc.fn()
			}
			for _, stage := range []string{"kernels.matrix", "kernels.center"} {
				b.ReportMetric(obs.GetHistogram(stage+".seconds").Sum()*1e3/float64(b.N), stage+"-ms/op")
			}
		})
	}
}
