// Package cca implements classical Canonical Correlation Analysis — the
// Sec. V-D stepping stone between PCA and KCCA. Given two centered
// multivariate datasets over the same items, CCA finds pairs of directions
// (one per dataset) whose projections are maximally correlated. It is
// solved here in its standard whitened-SVD form with ridge regularization;
// Whiten is that form's x side alone, which is all kcca.Train needs.
package cca

import (
	"errors"
	"math"

	"repro/internal/linalg"
)

// Model is a fitted CCA basis on the x side: every consumer projects
// x-observations only, so the y side's weights are not kept.
type Model struct {
	// MeanX holds the column means of x removed before fitting.
	MeanX []float64
	// WX maps (centered) x-observations into canonical space: one
	// canonical direction per column.
	WX *linalg.Matrix
	// Correlations are the canonical correlations, descending.
	Correlations []float64
}

// Fit computes up to r canonical pairs between the rows of x and y with
// ridge regularization reg (a fraction of the average covariance
// diagonal). The matrices must have equal row counts.
func Fit(x, y *linalg.Matrix, r int, reg float64) (*Model, error) {
	if x.Rows != y.Rows {
		return nil, errors.New("cca: datasets must have equal row counts")
	}
	if maxR := min(x.Cols, y.Cols); r <= 0 || r > maxR {
		r = maxR
	}

	cx, meanX, lxInv, err := whiten(x, reg)
	if err != nil {
		return nil, err
	}
	cy, _, lyInv, err := whiten(y, reg)
	if err != nil {
		return nil, err
	}
	sxy := cx.TMul(cy).Scale(1 / float64(x.Rows-1))

	// M = Lx⁻¹ Sxy Ly⁻ᵀ; its SVD gives the canonical structure.
	m := lxInv.Mul(sxy).MulT(lyInv)
	svd, err := linalg.SVD(m)
	if err != nil {
		return nil, err
	}
	u := svd.U.SliceCols(0, min(r, svd.U.Cols))
	r = u.Cols

	// Canonical weights: WX = Lx⁻ᵀ U.
	wx := lxInv.TMul(u)

	corr := make([]float64, r)
	for i := 0; i < r; i++ {
		c := svd.S[i]
		if c > 1 {
			c = 1
		}
		corr[i] = c
	}
	return &Model{MeanX: meanX, WX: wx, Correlations: corr}, nil
}

// Whiten is Fit's x side alone: WX = Lx⁻ᵀ, where Lx·Lxᵀ is the ridged
// covariance of x, so the projected rows have the identity as their ridged
// covariance. Where x is no wider than y and Fit keeps every canonical
// dimension, Fit's WX is Lx⁻ᵀU for a square orthogonal U, so the two project
// any two rows the same distance apart. The model has no correlations.
func Whiten(x *linalg.Matrix, reg float64) (*Model, error) {
	_, meanX, lxInv, err := whiten(x, reg)
	if err != nil {
		return nil, err
	}
	return &Model{MeanX: meanX, WX: lxInv.T()}, nil
}

// whiten returns x with its column means removed, those means, and L⁻¹ for
// the Cholesky factor L of the centered rows' covariance plus the ridge reg
// (1e-6 when reg ≤ 0).
func whiten(x *linalg.Matrix, reg float64) (centered *linalg.Matrix, mean []float64, lInv *linalg.Matrix, err error) {
	if x.Rows < 3 {
		return nil, nil, nil, errors.New("cca: need at least three rows")
	}
	if reg <= 0 {
		reg = 1e-6
	}
	centered = x.Clone()
	mean = centered.CenterColumns()
	s := centered.TMul(centered).Scale(1 / float64(x.Rows-1))
	ridge(s, reg)
	l, err := linalg.Cholesky(s)
	if err != nil {
		return nil, nil, nil, err
	}
	return centered, mean, l.InvLower(), nil
}

func ridge(s *linalg.Matrix, reg float64) {
	tr := 0.0
	for i := 0; i < s.Rows; i++ {
		tr += s.At(i, i)
	}
	avg := tr / math.Max(float64(s.Rows), 1)
	if avg <= 0 {
		avg = 1
	}
	s.AddDiag(reg*avg + 1e-12)
}

// ProjectX maps one x-observation into canonical space.
func (m *Model) ProjectX(x []float64) []float64 {
	centered := make([]float64, len(x))
	for i := range x {
		centered[i] = x[i] - m.MeanX[i]
	}
	return m.WX.TMulVec(centered)
}

// ProjectAllX maps every row of x into canonical space: row i is
// ProjectX(x.Row(i)), bit for bit, into one output matrix through one
// centered scratch row (TMulVecInto is TMulVec bit for bit, skipped zero
// terms included).
func (m *Model) ProjectAllX(x *linalg.Matrix) *linalg.Matrix {
	out := linalg.NewMatrix(x.Rows, m.WX.Cols)
	centered := make([]float64, x.Cols)
	for i := 0; i < x.Rows; i++ {
		for j, v := range x.Row(i) {
			centered[j] = v - m.MeanX[j]
		}
		m.WX.TMulVecInto(out.Row(i), centered)
	}
	return out
}
