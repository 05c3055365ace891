package linalg

import (
	"errors"
	"math"
	"sort"

	"repro/internal/obs"
	"repro/internal/parallel"
)

// EigenSym holds the eigendecomposition of a real symmetric matrix:
// A = V · diag(Values) · Vᵀ, with eigenvalues sorted in descending order and
// eigenvectors stored as the columns of Vectors.
type EigenSym struct {
	Values  []float64
	Vectors *Matrix
}

// SymEig computes the full eigendecomposition of the symmetric matrix a
// using Householder tridiagonalization followed by the implicit QL
// algorithm (the classic tred2/tql2 pair). Only the lower triangle of a is
// read. The result is sorted by descending eigenvalue.
func SymEig(a *Matrix) (*EigenSym, error) {
	if a.Rows != a.Cols {
		return nil, errors.New("linalg: SymEig requires a square matrix")
	}
	vals, vecs, err := TopEigenInPlace(a.Clone(), a.Rows)
	if err != nil {
		return nil, err
	}
	return &EigenSym{Values: vals, Vectors: vecs}, nil
}

// TopEigen returns the leading r eigenpairs (largest eigenvalues) of the
// symmetric matrix a, leaving a untouched; r is clamped to the matrix
// dimension.
func TopEigen(a *Matrix, r int) (vals []float64, vecs *Matrix, err error) {
	return TopEigenInPlace(a.Clone(), r)
}

// TopEigenInPlace is TopEigen for callers that no longer need a: the
// decomposition runs in a's own storage (a is destroyed), so the only
// matrix allocated is the n×r result. Only the lower triangle of a is read.
// Every eigenpair is bit-identical to the matching pair of SymEig(a).
func TopEigenInPlace(a *Matrix, r int) (vals []float64, vecs *Matrix, err error) {
	defer obs.Span("linalg.eigen")()
	if a.Rows != a.Cols {
		return nil, nil, errors.New("linalg: TopEigenInPlace requires a square matrix")
	}
	n := a.Rows
	if r > n {
		r = n
	}
	if r < 0 {
		r = 0
	}
	if n == 0 {
		return nil, NewMatrix(0, 0), nil
	}
	// tred2/tql2 below work on the transpose of the EISPACK working matrix
	// V (row j of the store is column j of V). V starts as the symmetrized
	// input, which is its own transpose, so mirroring a's lower triangle
	// upward is the whole set-up; callers may pass matrices with tiny
	// asymmetries from floating point accumulation.
	for i := 0; i < n; i++ {
		ri := a.Row(i)
		for j := i + 1; j < n; j++ {
			ri[j] = a.Data[j*n+i]
		}
	}
	d := make([]float64, n)
	e := make([]float64, n)
	tred2(a, d, e)
	if err := tql2(a, d, e); err != nil {
		return nil, nil, err
	}
	// Sort by descending eigenvalue; eigenvector j is row j of the store.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(p, q int) bool { return d[idx[p]] > d[idx[q]] })
	vals = make([]float64, r)
	vecs = NewMatrix(n, r)
	for c, j := range idx[:r] {
		vals[c] = d[j]
		for i, x := range a.Row(j) {
			vecs.Data[i*r+c] = x
		}
	}
	return vals, vecs, nil
}

// tred2 reduces a symmetric matrix to tridiagonal form using Householder
// similarity transformations, accumulating the transformations. On return d
// holds the diagonal and e the subdiagonal. This is the EISPACK routine with
// its working matrix V held transposed — t.Row(j) is column j of V — because
// every inner loop of the original walks down a column: on the row-major
// Matrix those become contiguous slice loops. Each element sees the same
// operations in the same order as in the column-walking form, so the results
// are bit-identical to it.
func tred2(t *Matrix, d, e []float64) {
	n := t.Rows
	for j := 0; j < n; j++ {
		d[j] = t.Data[j*n+n-1]
	}
	for i := n - 1; i > 0; i-- {
		scale := 0.0
		h := 0.0
		for k := 0; k < i; k++ {
			scale += math.Abs(d[k])
		}
		ti := t.Row(i)
		if scale == 0 {
			e[i] = d[i-1]
			for j := 0; j < i; j++ {
				d[j] = t.Data[j*n+i-1]
				t.Data[j*n+i] = 0
				ti[j] = 0
			}
		} else {
			for k := 0; k < i; k++ {
				d[k] /= scale
				h += d[k] * d[k]
			}
			f := d[i-1]
			g := math.Sqrt(h)
			if f > 0 {
				g = -g
			}
			e[i] = scale * g
			h -= f * g
			d[i-1] = f - g
			for j := 0; j < i; j++ {
				e[j] = 0
			}
			// Columns j and j+1 of V go through the loop together: each of
			// the two running sums g keeps its own index order, and e[k]
			// still receives column j's term before column j+1's, so every
			// value is what the one-column loop below computes — two
			// independent add chains instead of one.
			j := 0
			for ; j+2 <= i; j += 2 {
				f0, f1 := d[j], d[j+1]
				ti[j], ti[j+1] = f0, f1
				t0, t1 := t.Row(j), t.Row(j+1)
				g0 := e[j] + t0[j]*f0
				g0 += t0[j+1] * f1
				e[j+1] += t0[j+1] * f0
				g1 := e[j+1] + t1[j+1]*f1
				dk, ek, t1k := d[j+2:i], e[j+2:i], t1[j+2:i]
				for k, x0 := range t0[j+2 : i] {
					x1 := t1k[k]
					g0 += x0 * dk[k]
					g1 += x1 * dk[k]
					ek[k] = ek[k] + x0*f0 + x1*f1
				}
				e[j], e[j+1] = g0, g1
			}
			for ; j < i; j++ {
				f = d[j]
				ti[j] = f
				tj := t.Row(j)
				g = e[j] + tj[j]*f
				dk, ek := d[j+1:i], e[j+1:i]
				for k, x := range tj[j+1 : i] {
					g += x * dk[k]
					ek[k] += x * f
				}
				e[j] = g
			}
			f = 0
			for j := 0; j < i; j++ {
				e[j] /= h
				f += e[j] * d[j]
			}
			hh := f / (h + h)
			for j := 0; j < i; j++ {
				e[j] -= hh * d[j]
			}
			// Updates of V's columns are independent (column j only reads d
			// and e, which are fixed here, plus its own entries), so they go
			// to the worker pool; the d refresh moves after the barrier
			// because column j's final entries are written only by its own
			// worker.
			parallel.For(i, parallel.GrainFor(i/2+1, 1<<14), func(lo, hi int) {
				for j := lo; j < hi; j++ {
					subRank2(t.Row(j)[j:i], e[j:i], d[j:i], d[j], e[j])
				}
			})
			for j := 0; j < i; j++ {
				d[j] = t.Data[j*n+i-1]
				t.Data[j*n+i] = 0
			}
		}
		d[i] = h
	}
	// Accumulate transformations.
	for i := 0; i < n-1; i++ {
		t.Data[i*n+n-1] = t.Data[i*n+i]
		t.Data[i*n+i] = 1
		h := d[i+1]
		ti1 := t.Row(i + 1)[:i+1]
		if h != 0 {
			for k, x := range ti1 {
				d[k] = x / h
			}
			dk := d[:i+1]
			// Independent per column j of V: reads column i+1 and d (both
			// fixed), writes only column j. Exact at every worker count.
			parallel.For(i+1, parallel.GrainFor(i+1, 1<<14), func(lo, hi int) {
				j := lo
				for ; j+4 <= hi; j += 4 {
					reflect4(ti1, dk, t.Row(j)[:i+1], t.Row(j + 1)[:i+1], t.Row(j + 2)[:i+1], t.Row(j + 3)[:i+1])
				}
				for ; j < hi; j++ {
					tj := t.Row(j)[:i+1]
					g := 0.0
					for k, x := range ti1 {
						g += x * tj[k]
					}
					subScaled(tj, dk, g)
				}
			})
		}
		for k := range ti1 {
			ti1[k] = 0
		}
	}
	for j := 0; j < n; j++ {
		d[j] = t.Data[j*n+n-1]
		t.Data[j*n+n-1] = 0
	}
	t.Data[n*n-1] = 1
	e[0] = 0
}

// reflect4 applies tred2's accumulation step — t ← t − (u·t)·d — to four
// columns of V at once. Each column's dot product is still summed in index
// order, so its result is the one-column loop's bit for bit; running four
// independent sums side by side is what hides the floating-point add latency
// that a single running sum serializes on. The update half has no sum to
// wait on and goes column by column through the elementwise kernel.
func reflect4(u, d, t0, t1, t2, t3 []float64) {
	n := len(u)
	t0, t1, t2, t3 = t0[:n], t1[:n], t2[:n], t3[:n]
	var g0, g1, g2, g3 float64
	for k, x := range u {
		g0 += x * t0[k]
		g1 += x * t1[k]
		g2 += x * t2[k]
		g3 += x * t3[k]
	}
	subScaled(t0, d, g0)
	subScaled(t1, d, g1)
	subScaled(t2, d, g2)
	subScaled(t3, d, g3)
}

// rotGrain is the parallel grain of one tql2 Givens rotation (six flops per
// element): below it — every matrix under 2730 rows — the rotation runs
// inline, without a closure or a pool call per rotation.
var rotGrain = parallel.GrainFor(6, 1<<14)

// tql2 computes the eigendecomposition of the symmetric tridiagonal matrix
// (d, e) using the implicit QL algorithm, updating the transformations
// tred2 accumulated: the EISPACK routine on tred2's transposed store, so
// eigenvector j ends up in t.Row(j).
func tql2(t *Matrix, d, e []float64) error {
	n := t.Rows
	for i := 1; i < n; i++ {
		e[i-1] = e[i]
	}
	e[n-1] = 0

	f := 0.0
	tst1 := 0.0
	eps := math.Pow(2, -52)
	for l := 0; l < n; l++ {
		tst1 = math.Max(tst1, math.Abs(d[l])+math.Abs(e[l]))
		m := l
		for m < n {
			if math.Abs(e[m]) <= eps*tst1 {
				break
			}
			m++
		}
		if m > l {
			for iter := 0; ; iter++ {
				if iter > 50 {
					return errors.New("linalg: tql2 failed to converge")
				}
				// Compute implicit shift.
				g := d[l]
				p := (d[l+1] - g) / (2 * e[l])
				r := math.Hypot(p, 1)
				if p < 0 {
					r = -r
				}
				d[l] = e[l] / (p + r)
				d[l+1] = e[l] * (p + r)
				dl1 := d[l+1]
				h := g - d[l]
				for i := l + 2; i < n; i++ {
					d[i] -= h
				}
				f += h
				// Implicit QL transformation.
				p = d[m]
				c := 1.0
				c2 := c
				c3 := c
				el1 := e[l+1]
				s := 0.0
				s2 := 0.0
				for i := m - 1; i >= l; i-- {
					c3 = c2
					c2 = c
					s2 = s
					g = c * e[i]
					h = c * p
					r = math.Hypot(p, e[i])
					e[i+1] = s * r
					s = e[i] / r
					c = p / r
					p = c*d[i] - s*g
					d[i+1] = h + s*(c*g+s*d[i])
					// Accumulate transformation: a Givens rotation of V's
					// columns (i, i+1), independent per element.
					ri, ri1 := t.Row(i), t.Row(i+1)
					if n <= rotGrain {
						rotate(ri, ri1, c, s)
					} else {
						cc, ss := c, s
						parallel.For(n, rotGrain, func(lo, hi int) {
							rotate(ri[lo:hi], ri1[lo:hi], cc, ss)
						})
					}
				}
				p = -s * s2 * c3 * el1 * e[l] / dl1
				e[l] = s * p
				d[l] = c * p
				if math.Abs(e[l]) <= eps*tst1 {
					break
				}
			}
		}
		d[l] += f
		e[l] = 0
	}
	return nil
}
