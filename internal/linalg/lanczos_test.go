package linalg

import (
	"errors"
	"math"
	"testing"
)

// spdMatrix builds a deterministic symmetric PSD matrix with a decaying
// spectrum, the shape of a centered Gaussian kernel.
func spdMatrix(n int, seed uint64) *Matrix {
	rng := newSplitMix(seed)
	g := NewMatrix(n, n)
	for i := range g.Data {
		g.Data[i] = rng.float64() - 0.5
	}
	// A = G D Gᵀ with decaying diagonal: PSD, eigenvalues spread over
	// several orders of magnitude.
	d := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		d.Set(i, i, math.Pow(0.9, float64(i)))
	}
	return g.Mul(d).MulT(g)
}

// topEigenIter runs TopEigenIterative over an explicit dense symmetric
// matrix.
func topEigenIter(a *Matrix, r int, opt EigenOptions) ([]float64, *Matrix, error) {
	return TopEigenIterative(a.Rows, r, func(dst, src []float64) { a.MulVecInto(dst, src) }, opt)
}

func TestTopEigenIterativeMatchesDense(t *testing.T) {
	for _, n := range []int{24, 60, 150} {
		a := spdMatrix(n, uint64(n))
		r := n / 4
		vals, vecs, err := TopEigenIterative(n, r, func(dst, src []float64) {
			copy(dst, a.MulVec(src))
		}, EigenOptions{})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		dVals, dVecs, err := TopEigen(a, r)
		if err != nil {
			t.Fatal(err)
		}
		if len(vals) != r || vecs.Cols != r || vecs.Rows != n {
			t.Fatalf("n=%d: got %d values, %dx%d vectors", n, len(vals), vecs.Rows, vecs.Cols)
		}
		for j := 0; j < r; j++ {
			if rel := math.Abs(vals[j]-dVals[j]) / math.Max(dVals[0], 1e-300); rel > 1e-8 {
				t.Errorf("n=%d: eigenvalue %d: iterative %v dense %v (rel %g)", n, j, vals[j], dVals[j], rel)
			}
			// Eigenvectors match up to sign.
			dot := 0.0
			for i := 0; i < n; i++ {
				dot += vecs.At(i, j) * dVecs.At(i, j)
			}
			if math.Abs(math.Abs(dot)-1) > 1e-6 {
				t.Errorf("n=%d: eigenvector %d: |<v_iter, v_dense>| = %v, want 1", n, j, math.Abs(dot))
			}
		}
	}
}

func TestTopEigenIterativeWarmStart(t *testing.T) {
	n, r := 120, 20
	a := spdMatrix(n, 7)
	vals, vecs, err := topEigenIter(a, r, EigenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Perturb one row/column (the sliding-window shape) and re-solve warm.
	b := a.Clone()
	rng := newSplitMix(99)
	for i := 0; i < n; i++ {
		d := 0.01 * (rng.float64() - 0.5)
		b.Set(i, 3, b.At(i, 3)+d)
		b.Set(3, i, b.At(3, i)+d)
	}
	b.Set(3, 3, a.At(3, 3)) // keep symmetric exactly
	wVals, _, err := topEigenIter(b, r, EigenOptions{Warm: vecs})
	if err != nil {
		t.Fatalf("warm solve: %v", err)
	}
	dVals, _, err := TopEigen(b, r)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < r; j++ {
		if rel := math.Abs(wVals[j]-dVals[j]) / math.Max(dVals[0], 1e-300); rel > 1e-8 {
			t.Errorf("warm eigenvalue %d: %v vs dense %v", j, wVals[j], dVals[j])
		}
	}
	_ = vals
}

func TestTopEigenIterativeDeterministic(t *testing.T) {
	n, r := 80, 12
	a := spdMatrix(n, 3)
	v1, m1, err := topEigenIter(a, r, EigenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	v2, m2, err := topEigenIter(a, r, EigenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for j := range v1 {
		if v1[j] != v2[j] {
			t.Fatalf("eigenvalue %d differs across runs: %v vs %v", j, v1[j], v2[j])
		}
	}
	for i := range m1.Data {
		if m1.Data[i] != m2.Data[i] {
			t.Fatal("eigenvectors differ across identical runs")
		}
	}
}

func TestTopEigenIterativeEdgeCases(t *testing.T) {
	// r clamped to n; tiny matrices route through b == n.
	a := spdMatrix(6, 11)
	vals, vecs, err := topEigenIter(a, 10, EigenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 6 || vecs.Cols != 6 {
		t.Fatalf("clamp: got %d values", len(vals))
	}
	if _, v, err := TopEigenIterative(0, 0, nil, EigenOptions{}); err != nil || v.Cols != 0 {
		t.Fatalf("empty: %v", err)
	}
	// Iteration budget of 1 on a slow-converging problem must report
	// ErrNotConverged, not wrong answers.
	n := 100
	slow := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		slow.Set(i, i, 1-1e-9*float64(i)) // nearly flat spectrum
	}
	rot := spdMatrix(n, 5)
	_ = rot
	if _, _, err := TopEigenIterative(n, 8, func(dst, src []float64) {
		copy(dst, slow.MulVec(src))
	}, EigenOptions{MaxIter: 1, Tol: 1e-14}); err != nil && !errors.Is(err, ErrNotConverged) {
		t.Fatalf("expected ErrNotConverged, got %v", err)
	}
}
