package linalg

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/parallel"
	"repro/internal/statutil"
)

// Every parallelized linalg kernel partitions work so each output element
// keeps the serial loop's per-element arithmetic and summation order, so
// these tests demand exact equality with the one-worker path at every
// worker count — including the eigendecomposition and SVD, whose inner
// rotation/Householder loops were parallelized row- or column-wise.

func equivWorkerCounts() []int { return []int{1, 2, 7, runtime.NumCPU()} }

func randEquivMatrix(seed int64, r, c int) *Matrix {
	rng := statutil.NewRNG(seed, "linalg-equiv")
	m := NewMatrix(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	// Sprinkle exact zeros so the aik == 0 skip paths are exercised.
	for i := 0; i < len(m.Data); i += 13 {
		m.Data[i] = 0
	}
	return m
}

func exactEqual(t *testing.T, name string, w int, got, want *Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s workers=%d: shape %dx%d, serial %dx%d", name, w, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, v := range got.Data {
		if v != want.Data[i] && !(math.IsNaN(v) && math.IsNaN(want.Data[i])) {
			t.Fatalf("%s workers=%d: element %d = %v, serial %v", name, w, i, v, want.Data[i])
		}
	}
}

func TestMatMulParallelMatchesSerial(t *testing.T) {
	shapes := [][3]int{{5, 4, 3}, {64, 32, 80}, {211, 97, 133}}
	for _, s := range shapes {
		a := randEquivMatrix(int64(s[0]), s[0], s[1])
		b := randEquivMatrix(int64(s[1]), s[1], s[2])
		bt := randEquivMatrix(int64(s[2]), s[2], s[1]) // for MulT: m.Cols == b.Cols
		at := randEquivMatrix(int64(s[0])+99, s[0], s[2])
		v := randEquivMatrix(77, 1, s[1]).Row(0)
		vr := randEquivMatrix(78, 1, s[0]).Row(0)

		defer parallel.SetMaxProcs(parallel.SetMaxProcs(1))
		wantMul := a.Mul(b)
		wantTMul := a.TMul(at)
		wantMulT := a.MulT(bt)
		wantMulVec := a.MulVec(v)
		wantTMulVec := a.TMulVec(vr)

		for _, w := range equivWorkerCounts() {
			parallel.SetMaxProcs(w)
			exactEqual(t, "Mul", w, a.Mul(b), wantMul)
			exactEqual(t, "TMul", w, a.TMul(at), wantTMul)
			exactEqual(t, "MulT", w, a.MulT(bt), wantMulT)
			for i, got := range a.MulVec(v) {
				if got != wantMulVec[i] {
					t.Fatalf("MulVec workers=%d: out[%d] = %v, serial %v", w, i, got, wantMulVec[i])
				}
			}
			for i, got := range a.TMulVec(vr) {
				if got != wantTMulVec[i] {
					t.Fatalf("TMulVec workers=%d: out[%d] = %v, serial %v", w, i, got, wantTMulVec[i])
				}
			}
		}
		parallel.SetMaxProcs(0)
	}
}

func TestSymEigParallelMatchesSerial(t *testing.T) {
	for _, n := range []int{6, 40, 150} {
		x := randEquivMatrix(int64(n), n+10, n)
		spd := x.TMul(x)

		defer parallel.SetMaxProcs(parallel.SetMaxProcs(1))
		want, err := SymEig(spd)
		if err != nil {
			t.Fatal(err)
		}

		for _, w := range equivWorkerCounts() {
			parallel.SetMaxProcs(w)
			got, err := SymEig(spd)
			if err != nil {
				t.Fatal(err)
			}
			for i := range got.Values {
				if got.Values[i] != want.Values[i] {
					t.Fatalf("n=%d workers=%d: eigenvalue %d = %v, serial %v", n, w, i, got.Values[i], want.Values[i])
				}
			}
			exactEqual(t, "SymEig vectors", w, got.Vectors, want.Vectors)
		}
		parallel.SetMaxProcs(0)
	}
}

// TestTopEigenInPlaceParallelMatchesSerial covers the retrain's eigensolve:
// the leading eigenpairs of a kernel-shaped matrix, decomposed in its own
// storage, are the one-worker result at every worker count.
func TestTopEigenInPlaceParallelMatchesSerial(t *testing.T) {
	for _, n := range []int{6, 40, 150} {
		a := spdMatrix(n, uint64(n))
		r := n/4 + 1

		defer parallel.SetMaxProcs(parallel.SetMaxProcs(1))
		wantVals, wantVecs, err := TopEigenInPlace(a.Clone(), r)
		if err != nil {
			t.Fatal(err)
		}

		for _, w := range equivWorkerCounts() {
			parallel.SetMaxProcs(w)
			vals, vecs, err := TopEigenInPlace(a.Clone(), r)
			if err != nil {
				t.Fatal(err)
			}
			for i := range wantVals {
				if vals[i] != wantVals[i] {
					t.Fatalf("n=%d workers=%d: eigenvalue %d = %v, serial %v", n, w, i, vals[i], wantVals[i])
				}
			}
			exactEqual(t, "TopEigenInPlace vectors", w, vecs, wantVecs)
		}
		parallel.SetMaxProcs(0)
	}
}

func TestSVDParallelMatchesSerial(t *testing.T) {
	shapes := [][2]int{{30, 8}, {90, 60}, {40, 70}}
	for _, s := range shapes {
		a := randEquivMatrix(int64(s[0]*100+s[1]), s[0], s[1])

		defer parallel.SetMaxProcs(parallel.SetMaxProcs(1))
		want, err := SVD(a)
		if err != nil {
			t.Fatal(err)
		}

		for _, w := range equivWorkerCounts() {
			parallel.SetMaxProcs(w)
			got, err := SVD(a)
			if err != nil {
				t.Fatal(err)
			}
			for i := range got.S {
				if got.S[i] != want.S[i] {
					t.Fatalf("%dx%d workers=%d: singular value %d = %v, serial %v", s[0], s[1], w, i, got.S[i], want.S[i])
				}
			}
			exactEqual(t, "SVD U", w, got.U, want.U)
			exactEqual(t, "SVD V", w, got.V, want.V)
		}
		parallel.SetMaxProcs(0)
	}
}
