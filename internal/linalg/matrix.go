// Package linalg provides the dense linear algebra kernels used by the
// machine learning packages in this repository: matrix and vector
// arithmetic, Householder QR factorization and least squares, Cholesky
// factorization, symmetric eigendecomposition, and singular value
// decomposition. Everything is implemented from scratch on float64 and
// depends only on the standard library.
package linalg

import (
	"fmt"
	"math"
	"strings"
)

// Matrix is a dense row-major matrix of float64 values.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewMatrix returns a zero-valued r x c matrix.
func NewMatrix(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("linalg: invalid dimensions %dx%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// NewMatrixFrom builds an r x c matrix from row-major data. The slice is
// used directly (not copied).
func NewMatrixFrom(r, c int, data []float64) *Matrix {
	if len(data) != r*c {
		panic(fmt.Sprintf("linalg: data length %d does not match %dx%d", len(data), r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: data}
}

// CheckShape verifies the structural invariant len(Data) == Rows*Cols with
// nonnegative dimensions. Matrices built by this package always satisfy it;
// matrices decoded from external bytes (gob model files) may not, and using
// a malformed one panics deep in the kernels — deserializers call this
// first to fail with an error instead.
func (m *Matrix) CheckShape() error {
	if m == nil {
		return fmt.Errorf("linalg: nil matrix")
	}
	if m.Rows < 0 || m.Cols < 0 {
		return fmt.Errorf("linalg: negative dimensions %dx%d", m.Rows, m.Cols)
	}
	if len(m.Data) != m.Rows*m.Cols {
		return fmt.Errorf("linalg: data length %d does not match %dx%d", len(m.Data), m.Rows, m.Cols)
	}
	return nil
}

// FromRows builds a matrix from a slice of equal-length rows, copying them.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	c := len(rows[0])
	m := NewMatrix(len(rows), c)
	for i, row := range rows {
		if len(row) != c {
			panic(fmt.Sprintf("linalg: ragged rows: row %d has %d cols, want %d", i, len(row), c))
		}
		copy(m.Data[i*c:(i+1)*c], row)
	}
	return m
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Col returns a copy of column j.
func (m *Matrix) Col(j int) []float64 {
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = m.Data[i*m.Cols+j]
	}
	return out
}

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// T returns the transpose as a new matrix.
func (m *Matrix) T() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		ri := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, v := range ri {
			out.Data[j*m.Rows+i] = v
		}
	}
	return out
}

// Mul returns the matrix product m * b.
func (m *Matrix) Mul(b *Matrix) *Matrix {
	if m.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: Mul dimension mismatch %dx%d * %dx%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	out := NewMatrix(m.Rows, b.Cols)
	// ikj loop order for cache friendliness on row-major storage.
	for i := 0; i < m.Rows; i++ {
		arow := m.Data[i*m.Cols : (i+1)*m.Cols]
		orow := out.Data[i*b.Cols : (i+1)*b.Cols]
		for k, aik := range arow {
			if aik == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bkj := range brow {
				orow[j] += aik * bkj
			}
		}
	}
	return out
}

// MulVec returns the matrix-vector product m * v.
func (m *Matrix) MulVec(v []float64) []float64 {
	if m.Cols != len(v) {
		panic(fmt.Sprintf("linalg: MulVec dimension mismatch %dx%d * %d", m.Rows, m.Cols, len(v)))
	}
	out := make([]float64, m.Rows)
	for i := range out {
		out[i] = Dot(m.Row(i), v)
	}
	return out
}

// TMulVec returns mᵀ * v without forming the transpose.
func (m *Matrix) TMulVec(v []float64) []float64 {
	if m.Rows != len(v) {
		panic(fmt.Sprintf("linalg: TMulVec dimension mismatch %dx%d, vec %d", m.Rows, m.Cols, len(v)))
	}
	out := make([]float64, m.Cols)
	for i, vi := range v {
		if vi == 0 {
			continue
		}
		for j, mij := range m.Row(i) {
			out[j] += vi * mij
		}
	}
	return out
}

// TMul returns mᵀ * b without forming the transpose: row i of the result
// gains m[k][i]·b[k] for k ascending, one addScaled per term, and a term
// whose m[k][i] is exactly zero is skipped (adding 0·b[k] would turn an
// infinite entry of b into NaN).
func (m *Matrix) TMul(b *Matrix) *Matrix {
	if m.Rows != b.Rows {
		panic(fmt.Sprintf("linalg: TMul dimension mismatch %dx%d ᵀ* %dx%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	out := NewMatrix(m.Cols, b.Cols)
	for k := 0; k < m.Rows; k++ {
		bk := b.Row(k)
		for i, a := range m.Row(k) {
			if a != 0 {
				addScaled(out.Row(i), bk, a)
			}
		}
	}
	return out
}

// MulT returns m * bᵀ without forming the transpose.
func (m *Matrix) MulT(b *Matrix) *Matrix {
	if m.Cols != b.Cols {
		panic(fmt.Sprintf("linalg: MulT dimension mismatch %dx%d *ᵀ %dx%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	out := NewMatrix(m.Rows, b.Rows)
	for i := 0; i < m.Rows; i++ {
		arow := m.Row(i)
		orow := out.Row(i)
		for j := 0; j < b.Rows; j++ {
			orow[j] = Dot(arow, b.Row(j))
		}
	}
	return out
}

// Add returns m + b as a new matrix.
func (m *Matrix) Add(b *Matrix) *Matrix {
	m.checkSameShape(b, "Add")
	out := m.Clone()
	for i, v := range b.Data {
		out.Data[i] += v
	}
	return out
}

// Sub returns m - b as a new matrix.
func (m *Matrix) Sub(b *Matrix) *Matrix {
	m.checkSameShape(b, "Sub")
	out := m.Clone()
	for i, v := range b.Data {
		out.Data[i] -= v
	}
	return out
}

// Scale returns s * m as a new matrix.
func (m *Matrix) Scale(s float64) *Matrix {
	out := m.Clone()
	for i := range out.Data {
		out.Data[i] *= s
	}
	return out
}

// AddDiag adds v to every diagonal element in place and returns m.
func (m *Matrix) AddDiag(v float64) *Matrix {
	n := m.Rows
	if m.Cols < n {
		n = m.Cols
	}
	for i := 0; i < n; i++ {
		m.Data[i*m.Cols+i] += v
	}
	return m
}

// SliceRows returns a copy of rows [lo, hi).
func (m *Matrix) SliceRows(lo, hi int) *Matrix {
	if lo < 0 || hi > m.Rows || lo > hi {
		panic(fmt.Sprintf("linalg: SliceRows [%d,%d) out of range for %d rows", lo, hi, m.Rows))
	}
	out := NewMatrix(hi-lo, m.Cols)
	copy(out.Data, m.Data[lo*m.Cols:hi*m.Cols])
	return out
}

// SliceCols returns a copy of columns [lo, hi).
func (m *Matrix) SliceCols(lo, hi int) *Matrix {
	if lo < 0 || hi > m.Cols || lo > hi {
		panic(fmt.Sprintf("linalg: SliceCols [%d,%d) out of range for %d cols", lo, hi, m.Cols))
	}
	out := NewMatrix(m.Rows, hi-lo)
	for i := 0; i < m.Rows; i++ {
		copy(out.Row(i), m.Row(i)[lo:hi])
	}
	return out
}

// MaxAbs returns the largest absolute element value.
func (m *Matrix) MaxAbs() float64 {
	mx := 0.0
	for _, v := range m.Data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// Equal reports whether m and b have the same shape and all elements are
// within tol of each other.
func (m *Matrix) Equal(b *Matrix, tol float64) bool {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		return false
	}
	for i, v := range m.Data {
		if math.Abs(v-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%dx%d\n", m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			fmt.Fprintf(&sb, "% 12.6g", m.At(i, j))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func (m *Matrix) checkSameShape(b *Matrix, op string) {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		panic(fmt.Sprintf("linalg: %s shape mismatch %dx%d vs %dx%d", op, m.Rows, m.Cols, b.Rows, b.Cols))
	}
}

// CenterColumns subtracts the column means in place and returns the means.
func (m *Matrix) CenterColumns() []float64 {
	means := make([]float64, m.Cols)
	if m.Rows == 0 {
		return means
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			means[j] += v
		}
	}
	inv := 1.0 / float64(m.Rows)
	for j := range means {
		means[j] *= inv
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] -= means[j]
		}
	}
	return means
}
