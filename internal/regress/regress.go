// Package regress implements multiple linear regression — the paper's
// Sec. V-A baseline. Each performance metric is regressed independently on
// the query plan features; the paper shows this predicts poorly (orders of
// magnitude off, including negative elapsed times) because the true cost
// structure is nonlinear in the features.
package regress

import (
	"errors"

	"repro/internal/linalg"
)

// Model is a fitted linear model y = intercept + Σ coef·x.
type Model struct {
	Intercept float64
	Coef      []float64
}

// Fit solves the least squares problem for the design matrix x (one row
// per observation) and targets y, with an intercept term.
func Fit(x *linalg.Matrix, y []float64) (*Model, error) {
	if x.Rows != len(y) {
		return nil, errors.New("regress: row count does not match target count")
	}
	if x.Rows == 0 {
		return nil, errors.New("regress: no observations")
	}
	// Augment with a constant column for the intercept.
	aug := linalg.NewMatrix(x.Rows, x.Cols+1)
	for i := 0; i < x.Rows; i++ {
		row := aug.Row(i)
		row[0] = 1
		copy(row[1:], x.Row(i))
	}
	coef, err := linalg.LeastSquares(aug, y)
	if err != nil {
		return nil, err
	}
	return &Model{Intercept: coef[0], Coef: coef[1:]}, nil
}

// Predict evaluates the model on one feature vector.
func (m *Model) Predict(x []float64) float64 {
	return m.Intercept + linalg.Dot(m.Coef, x)
}

// PredictAll evaluates the model on every row of x.
func (m *Model) PredictAll(x *linalg.Matrix) []float64 {
	out := make([]float64, x.Rows)
	for i := range out {
		out[i] = m.Predict(x.Row(i))
	}
	return out
}
