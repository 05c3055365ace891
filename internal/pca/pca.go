// Package pca implements Principal Component Analysis — the Sec. V-C
// baseline. PCA finds directions of maximal variance within ONE dataset;
// the paper's point is that it cannot find correlations BETWEEN the query
// and performance datasets, which is what prediction needs.
package pca

import (
	"errors"

	"repro/internal/linalg"
)

// Model is a fitted PCA basis.
type Model struct {
	// Mean holds the column means removed before projection.
	Mean []float64
	// Components has one principal direction per column.
	Components *linalg.Matrix
	// Variances are the eigenvalues (explained variance per component).
	Variances []float64
}

// Fit computes the top-r principal components of the rows of x.
func Fit(x *linalg.Matrix, r int) (*Model, error) {
	if x.Rows < 2 {
		return nil, errors.New("pca: need at least two rows")
	}
	if r <= 0 || r > x.Cols {
		r = x.Cols
	}
	c := x.Clone()
	mean := c.CenterColumns()
	// Covariance = XᵀX / (n−1).
	cov := c.TMul(c).Scale(1 / float64(x.Rows-1))
	vals, vecs, err := linalg.TopEigen(cov, r)
	if err != nil {
		return nil, err
	}
	for i, v := range vals {
		if v < 0 {
			vals[i] = 0
		}
	}
	return &Model{Mean: mean, Components: vecs, Variances: vals}, nil
}

// Project maps one observation into component space.
func (m *Model) Project(x []float64) []float64 {
	centered := make([]float64, len(x))
	for i := range x {
		centered[i] = x[i] - m.Mean[i]
	}
	return m.Components.TMulVec(centered)
}
