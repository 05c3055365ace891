package kernels

import (
	"runtime"
	"testing"

	"repro/internal/linalg"
	"repro/internal/parallel"
	"repro/internal/statutil"
)

// The parallel kernel paths promise bit-for-bit equality with the serial
// path at every worker count: each matrix element is computed by exactly
// one worker with arithmetic identical to the serial loop. These tests hold
// them to exact equality (stronger than the 1e-12 budget the non-order-
// preserving kernels are allowed).

func equivWorkerCounts() []int { return []int{1, 2, 7, runtime.NumCPU()} }

func randMatrix(seed int64, r, c int) *linalg.Matrix {
	rng := statutil.NewRNG(seed, "kernels-equiv")
	m := linalg.NewMatrix(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64() * 5
	}
	return m
}

func TestMatrixParallelMatchesSerial(t *testing.T) {
	for _, n := range []int{3, 17, 120, 333} {
		x := randMatrix(int64(n), n, 9)
		tau := ScaleHeuristic(x, 0.1)

		defer parallel.SetMaxProcs(parallel.SetMaxProcs(1))
		want := Matrix(x, tau)

		for _, w := range equivWorkerCounts() {
			parallel.SetMaxProcs(w)
			got := Matrix(x, tau)
			for i, v := range got.Data {
				if v != want.Data[i] {
					t.Fatalf("n=%d workers=%d: element %d = %v, serial %v", n, w, i, v, want.Data[i])
				}
			}
		}
		parallel.SetMaxProcs(0)
	}
}

// TestCrossVectorParallelMatchesSerial also holds both cross-vector forms to
// Gaussian itself, element by element: they score four (or, feature-major on
// AVX2, sixteen) rows per pass, and a row count that is not a multiple of
// that finishes through a one-row loop. 3000 rows is enough for the pooled
// form to actually split.
func TestCrossVectorParallelMatchesSerial(t *testing.T) {
	defer parallel.SetMaxProcs(parallel.SetMaxProcs(1))
	for _, n := range []int{1, 2, 3, 4, 5, 513, 3000} {
		x := randMatrix(7, n, 12)
		q := randMatrix(8, 1, 12).Row(0)
		tau := ScaleHeuristic(x, 0.1)
		want := make([]float64, n)
		for i := range want {
			want[i] = Gaussian(x.Row(i), q, tau)
		}
		check := func(name string, got []float64) {
			t.Helper()
			for i, v := range got {
				if v != want[i] {
					t.Fatalf("n=%d %s: out[%d] = %v, Gaussian %v", n, name, i, v, want[i])
				}
			}
		}
		check("feature-major form", CrossVectorColsInto(make([]float64, n), x.T(), q, tau))
		for _, w := range equivWorkerCounts() {
			parallel.SetMaxProcs(w)
			check("pooled form", CrossVector(x, q, tau))
		}
		parallel.SetMaxProcs(1)
	}
}

// TestCenterParallelMatchesSerial holds the in-place centering at every
// worker count to the out-of-place formula, element for element.
func TestCenterParallelMatchesSerial(t *testing.T) {
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

	defer parallel.SetMaxProcs(parallel.SetMaxProcs(1))
	for _, w := range equivWorkerCounts() {
		parallel.SetMaxProcs(w)
		gotC := k.Clone()
		gotRM, gotGM := Center(gotC)
		if gotGM != wantGM {
			t.Fatalf("workers=%d: grand mean %v, serial %v", w, gotGM, wantGM)
		}
		for i := range gotRM {
			if gotRM[i] != wantRM[i] {
				t.Fatalf("workers=%d: row mean %d = %v, serial %v", w, i, gotRM[i], wantRM[i])
			}
		}
		for i, v := range gotC.Data {
			if v != wantC.Data[i] {
				t.Fatalf("workers=%d: centered element %d = %v, serial %v", w, i, v, wantC.Data[i])
			}
		}
	}
	parallel.SetMaxProcs(0)
}

// BenchmarkCrossVector is the cross-kernel at the daemon's shape (800
// training rows × 24 plan features): one Gaussian per row, four rows per
// pass over the row-major points, and the predict path's feature-major form
// on the AVX2 kernels (where the host has them) and on the portable loops.
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
	b.Run("CrossVectorInto", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			CrossVectorInto(out, x, q, tau)
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
