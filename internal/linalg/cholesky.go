package linalg

import (
	"errors"
	"math"
)

// ErrNotPositiveDefinite is returned by Cholesky when the input matrix is
// not (numerically) symmetric positive definite.
var ErrNotPositiveDefinite = errors.New("linalg: matrix is not positive definite")

// Cholesky holds the lower-triangular factor L of A = L·Lᵀ.
type CholeskyFactor struct {
	L *Matrix
}

// Cholesky computes the Cholesky factorization of the symmetric positive
// definite matrix a. Only the lower triangle of a is read.
func Cholesky(a *Matrix) (*CholeskyFactor, error) {
	if a.Rows != a.Cols {
		return nil, errors.New("linalg: Cholesky requires a square matrix")
	}
	n := a.Rows
	l := NewMatrix(n, n)
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		lrowj := l.Row(j)
		for k := 0; k < j; k++ {
			d -= lrowj[k] * lrowj[k]
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, ErrNotPositiveDefinite
		}
		diag := math.Sqrt(d)
		lrowj[j] = diag
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			lrowi := l.Row(i)
			for k := 0; k < j; k++ {
				s -= lrowi[k] * lrowj[k]
			}
			lrowi[j] = s / diag
		}
	}
	return &CholeskyFactor{L: l}, nil
}

// SolveVec solves A x = b given the factorization A = L·Lᵀ.
func (c *CholeskyFactor) SolveVec(b []float64) []float64 {
	n := c.L.Rows
	if len(b) != n {
		panic("linalg: Cholesky SolveVec dimension mismatch")
	}
	// Forward substitution: L y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		row := c.L.Row(i)
		for k := 0; k < i; k++ {
			s -= row[k] * y[k]
		}
		y[i] = s / row[i]
	}
	// Back substitution: Lᵀ x = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= c.L.At(k, i) * x[k]
		}
		x[i] = s / c.L.At(i, i)
	}
	return x
}

// InvLower returns L⁻¹ (lower triangular).
func (c *CholeskyFactor) InvLower() *Matrix {
	n := c.L.Rows
	inv := NewMatrix(n, n)
	// Solve L X = I column by column with forward substitution.
	for j := 0; j < n; j++ {
		for i := j; i < n; i++ {
			s := 0.0
			if i == j {
				s = 1.0
			}
			row := c.L.Row(i)
			for k := j; k < i; k++ {
				s -= row[k] * inv.At(k, j)
			}
			inv.Set(i, j, s/row[i])
		}
	}
	return inv
}
