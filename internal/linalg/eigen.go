package linalg

import (
	"errors"
	"math"
	"sort"
	"time"

	"repro/internal/obs"
)

// The dense eigensolver's timings: the whole solve and its three phases.
var (
	eigenSeconds      = obs.GetHistogram("linalg.eigen.seconds")
	reduceSeconds     = obs.GetHistogram("linalg.eigen.reduce.seconds")
	accumulateSeconds = obs.GetHistogram("linalg.eigen.accumulate.seconds")
	qlSeconds         = obs.GetHistogram("linalg.eigen.ql.seconds")
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
// decomposition runs in a's own storage (a is destroyed), so no second n×n
// array is allocated — only the n×r result and O(n²/2) scratch. Only the
// lower triangle of a is read. Every eigenpair is bit-identical to the
// matching pair of SymEig(a).
func TopEigenInPlace(a *Matrix, r int) (vals []float64, vecs *Matrix, err error) {
	return topEigen(a, r, rotLogLen)
}

// rotLogLen bounds the rotations tql2 logs between passes over V: 64 Ki
// (c, s) pairs, 1 MiB (fewer where the n(n−1)/2 scratch is smaller).
const rotLogLen = 1 << 16

// topEigen is TopEigenInPlace with the rotation log bounded at logLen
// rotations (at least one).
func topEigen(a *Matrix, r, logLen int) (vals []float64, vecs *Matrix, err error) {
	defer eigenSeconds.Since(time.Now())
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
	// One scratch array serves the accumulation's triangle of scaled
	// Householder vectors and, once that is spent, tql2's rotation log.
	tri := n * (n - 1) / 2
	scratch := make([]float64, max(tri, 2))
	logCap := min(2*logLen, len(scratch)&^1)

	start := time.Now()
	tred2(a, d, e)
	start = reduceSeconds.Since(start)
	accumulate(a, d, scratch[:tri])
	start = accumulateSeconds.Since(start)
	err = tql2(a, d, e, scratch[:0:logCap])
	qlSeconds.Since(start)
	if err != nil {
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
// similarity transformations; accumulate then forms the transformations.
// On return e holds the subdiagonal, d[i] the h of the reflection that
// zeroed row i, and row i of t its Householder vector. This is the EISPACK
// routine with its working matrix V held transposed — t.Row(j) is column j
// of V — because every inner loop of the original walks down a column: on
// the row-major Matrix those become contiguous slice loops. Each element
// sees the same operations in the same order as in the column-walking form,
// so the results are bit-identical to it.
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
			// column is the EISPACK loop for column c of V, stopped before
			// row end: it adds the column's terms to e below the diagonal
			// and returns the column's running dot g.
			column := func(c, end int) float64 {
				fc := d[c]
				ti[c] = fc
				tc := t.Row(c)
				g := e[c] + tc[c]*fc
				dk, ek := d[c+1:end], e[c+1:end]
				for k, x := range tc[c+1 : end] {
					g += x * dk[k]
					ek[k] += x * fc
				}
				return g
			}
			// Columns go symvCols at a time: the block's own triangle
			// column by column, then every row below it in one symv pass,
			// which continues each column's dot down its rows in order and
			// adds the columns' terms to each e[k] in column order. The
			// columns left over take the loop whole.
			j := 0
			for ; j+symvCols <= i; j += symvCols {
				var fs, gs [symvCols]float64
				end := j + symvCols
				for c := j; c < end; c++ {
					fs[c-j], gs[c-j] = d[c], column(c, end)
				}
				symv(t.Data[j*n+end:], n, d[end:i], e[end:i], &fs, &gs)
				copy(e[j:end], gs[:])
			}
			for ; j < i; j++ {
				e[j] = column(j, i)
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
			for j := 0; j < i; j++ {
				subRank2(t.Row(j)[j:i], e[j:i], d[j:i], d[j], e[j])
				d[j] = t.Data[j*n+i-1]
				t.Data[j*n+i] = 0
			}
		}
		d[i] = h
	}
	e[0] = 0
}

// accStrip is the number of columns of V that accumulate carries through
// the Householder steps together: one lane per column, four AVX2 vectors.
const accStrip = 16

// accumulate is the second half of EISPACK's tred2: it turns the Householder
// vectors tred2 left in t into the orthogonal V, and d into the diagonal of
// the tridiagonal matrix. tri (length n(n−1)/2) is scratch.
//
// Step i of the original updates every column j ≤ i of V by the reflection
// in row i+1 of the store: t[j][:i+1] −= (u·t[j][:i+1])·u/h, u = t[i+1][:i+1],
// h = d[i+1]. Once u and u/h are fixed, each column evolves on its own,
// starting as the unit vector e_j at step j. So the columns go through all
// steps accStrip at a time, in a column-interleaved block that stays in
// cache: the dots are one lane-per-column pass (TMulVecInto) and the update
// one rank-1 pass (subOuter), every column seeing its own terms in the
// original order. Blocks run in ascending order and each is written back
// only when done, so the Householder vectors later blocks read — rows past
// the block — are still intact. TMulVecInto skips terms whose u[k] is an
// exact zero, which the original adds; on finite operands that is invisible,
// because a sum started at +0 never becomes −0.
func accumulate(t *Matrix, d, tri []float64) {
	n := t.Rows
	// Step i's first act is to stash column i's diagonal in row n−1 of V,
	// where the last loop reads the eigenvalue diagonal from; no update
	// touches either entry before that, so all are stashed here.
	for i := 0; i < n-1; i++ {
		t.Data[i*n+n-1] = t.Data[i*n+i]
	}
	// u/h for every step, divided once: tri[i(i+1)/2:][:i+1] is step i's.
	for i := 0; i < n-1; i++ {
		if h := d[i+1]; h != 0 {
			dk := tri[i*(i+1)/2:][:i+1]
			for k, x := range t.Row(i + 1)[:i+1] {
				dk[k] = x / h
			}
		}
	}
	blk := make([]float64, accStrip*n) // blk[k·accStrip+c] = V[k][j0+c]
	g := make([]float64, accStrip)
	view := Matrix{Cols: accStrip}
	for j0 := 0; j0 < n; j0 += accStrip {
		clear(blk)
		for i := j0; i < n; i++ {
			// Column i joins as e_i. Until then its lane went through the
			// steps on whatever it held, and only rows above i were touched.
			if c := i - j0; c < accStrip {
				for k := 0; k < i; k++ {
					blk[k*accStrip+c] = 0
				}
				blk[i*accStrip+c] = 1
			}
			if i == n-1 || d[i+1] == 0 {
				continue
			}
			view.Rows, view.Data = i+1, blk[:(i+1)*accStrip]
			view.TMulVecInto(g, t.Row(i + 1)[:i+1])
			subOuter(view.Data, g, tri[i*(i+1)/2:][:i+1])
		}
		for k := 0; k < n-1; k++ {
			for c, x := range blk[k*accStrip : k*accStrip+min(accStrip, n-j0)] {
				t.Data[(j0+c)*n+k] = x
			}
		}
	}
	for j := 0; j < n; j++ {
		d[j] = t.Data[j*n+n-1]
		t.Data[j*n+n-1] = 0
	}
	t.Data[n*n-1] = 1
}

// tql2 computes the eigendecomposition of the symmetric tridiagonal matrix
// (d, e) using the implicit QL algorithm, updating the transformations
// tred2 accumulated: the EISPACK routine on tred2's transposed store, so
// eigenvector j ends up in t.Row(j).
func tql2(t *Matrix, d, e, log []float64) error {
	n := t.Rows
	rl := rotLog{t: t, cs: log}
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
					// columns (i, i+1), applied when the log is flushed.
					rl.add(i, c, s)
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
	rl.flush()
	return nil
}

// rotLog holds tql2's rotations until they are applied to V. A QL sweep's
// (c, s) depend only on d and e — V is never read — so applying them later
// changes nothing as long as every element of V sees them in order. flush
// does that one strip of sweepStrip columns at a time: the strip stays in
// cache through every logged rotation, where rotating whole rows streams
// all of V through memory once per rotation.
type rotLog struct {
	t    *Matrix
	cs   []float64 // (c, s) pairs in the order tql2 made them; flush at cap
	runs []rotRun
}

// rotRun is a run of rotations each one row below the last: rotation r of
// the run turns rows (lo+rots−r−1, lo+rots−r) of the store.
type rotRun struct{ lo, rots int }

// sweepStrip is the strip width flush hands to sweep.
const sweepStrip = 16

// add logs the rotation of rows (i, i+1).
func (rl *rotLog) add(i int, c, s float64) {
	if len(rl.cs) == cap(rl.cs) {
		rl.flush()
	}
	if k := len(rl.runs) - 1; k >= 0 && rl.runs[k].lo == i+1 {
		rl.runs[k].lo, rl.runs[k].rots = i, rl.runs[k].rots+1
	} else {
		rl.runs = append(rl.runs, rotRun{lo: i, rots: 1})
	}
	rl.cs = append(rl.cs, c, s)
}

// flush applies the logged rotations and empties the log.
func (rl *rotLog) flush() {
	n := rl.t.Cols
	for k0 := 0; k0 < n; k0 += sweepStrip {
		w, at := min(sweepStrip, n-k0), 0
		for _, run := range rl.runs {
			sweep(rl.t.Data[run.lo*n+k0:], n, w, rl.cs[at:at+2*run.rots])
			at += 2 * run.rots
		}
	}
	rl.cs, rl.runs = rl.cs[:0], rl.runs[:0]
}
