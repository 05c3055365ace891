package linalg

import (
	"errors"
	"math"
	"time"

	"repro/internal/obs"
)

// SVDFactor holds the singular values and left singular vectors of a thin
// singular value decomposition A = U · diag(S) · Vᵀ, with S sorted
// descending and U of size m x p where p = min(m, n). V is not computed:
// no caller reads it.
type SVDFactor struct {
	U *Matrix
	S []float64
}

// SVD computes the singular values and left singular vectors of a. For
// matrices with more columns than rows the decomposition is computed on
// the transpose, whose right singular vectors are a's left ones. Its timer,
// linalg.svd.seconds, is registered at the first call: no KCCA fit runs an
// SVD, so a daemon never lists one.
func SVD(a *Matrix) (*SVDFactor, error) {
	defer obs.GetHistogram("linalg.svd.seconds").Since(time.Now())
	if min(a.Rows, a.Cols) == 0 {
		return &SVDFactor{U: NewMatrix(a.Rows, 0)}, nil
	}
	if a.Rows >= a.Cols {
		return svdTall(a.T(), true)
	}
	return svdTall(a.Clone(), false)
}

// svdTall implements the Golub-Reinsch algorithm (JAMA translation) for an
// m×n matrix A with m >= n >= 1, given as its transpose at, which it
// consumes. It returns A's singular values and, in U, A's left singular
// vectors when left is set and its right ones otherwise; the other factor is
// never formed. Neither factor feeds back into the singular values or the
// other, so each is what the three-factor routine computes, bit for bit.
//
// The JAMA loops walk the columns of A, U and V, so all three are held
// transposed, as tred2 holds its V: column j is row j of at, ut and vt. Every
// inner loop is then a contiguous slice — each dot product one serial sum
// from +0 like the original's (reflectRows), the updates addScaled, each
// Givens rotation rotate on two rows — and every element sees the same operations in the same order as
// in the column-walking form, so the factors are bit-identical to it
// (svd_ref_test.go keeps it). A rotation JAMA writes as
// (cs·x + sn·y, −sn·x + cs·y) is rotate with s = −sn: c·x − (−sn)·y rounds
// exactly as c·x + sn·y does, since negation is exact and x − y is x + (−y).
func svdTall(at *Matrix, left bool) (*SVDFactor, error) {
	n, m := at.Rows, at.Cols
	s := make([]float64, n+1)
	var ut, vt *Matrix
	var u, v [][]float64
	if left {
		ut = NewMatrix(n, m)
		u = rowSlices(ut)
	} else {
		vt = NewMatrix(n, n)
		v = rowSlices(vt)
	}
	e := make([]float64, n)
	work := make([]float64, m)
	dots := make([]float64, n)

	// Reduce A to bidiagonal form, storing the diagonal elements in s and
	// the super-diagonal elements in e.
	nct := min(m-1, n)
	nrt := max(0, min(n-2, m))
	for k := 0; k < max(nct, nrt); k++ {
		ak := at.Row(k)
		if k < nct {
			// Compute the 2-norm of the k-th column of A below the diagonal.
			s[k] = 0
			for _, x := range ak[k:] {
				s[k] = math.Hypot(s[k], x)
			}
			if s[k] != 0 {
				if ak[k] < 0 {
					s[k] = -s[k]
				}
				for i, x := range ak[k:] {
					ak[k+i] = x / s[k]
				}
				ak[k]++
			}
			s[k] = -s[k]
		}
		if k < nct && s[k] != 0 {
			// Apply the transformation.
			reflectRows(at, k, k, dots)
		}
		for j := k + 1; j < n; j++ {
			e[j] = at.At(j, k)
		}
		if k < nct && ut != nil {
			copy(ut.Row(k)[k:], ak[k:])
		}
		if k < nrt {
			// Compute the k-th row transformation.
			e[k] = 0
			for i := k + 1; i < n; i++ {
				e[k] = math.Hypot(e[k], e[i])
			}
			if e[k] != 0 {
				if e[k+1] < 0 {
					e[k] = -e[k]
				}
				for i := k + 1; i < n; i++ {
					e[i] /= e[k]
				}
				e[k+1]++
			}
			e[k] = -e[k]
			if k+1 < m && e[k] != 0 {
				w := work[k+1:]
				clear(w)
				for j := k + 1; j < n; j++ {
					addScaled(w, at.Row(j)[k+1:], e[j])
				}
				for j := k + 1; j < n; j++ {
					addScaled(at.Row(j)[k+1:], w, -e[j]/e[k+1])
				}
			}
			if vt != nil {
				copy(vt.Row(k)[k+1:], e[k+1:])
			}
		}
	}

	// Set up the final bidiagonal matrix of order p.
	p := min(n, m+1)
	if nct < n {
		s[nct] = at.At(nct, nct)
	}
	if m < p {
		s[p-1] = 0
	}
	if nrt+1 < p {
		e[nrt] = at.At(p-1, nrt)
	}
	e[p-1] = 0

	// Generate U.
	for j := nct; j < n && ut != nil; j++ {
		uj := ut.Row(j)
		clear(uj)
		uj[j] = 1
	}
	for k := nct - 1; k >= 0 && ut != nil; k-- {
		uk := ut.Row(k)
		if s[k] != 0 {
			reflectRows(ut, k, k, dots)
			for i, x := range uk[k:] {
				uk[k+i] = -x
			}
			uk[k] = 1 + uk[k]
			for i := 0; i < k-1; i++ {
				uk[i] = 0
			}
		} else {
			clear(uk)
			uk[k] = 1
		}
	}

	// Generate V.
	for k := n - 1; k >= 0 && vt != nil; k-- {
		vk := vt.Row(k)
		if k < nrt && e[k] != 0 {
			reflectRows(vt, k, k+1, dots)
		}
		clear(vk)
		vk[k] = 1
	}

	// Main iteration loop for the singular values. It turns and reorders
	// whole columns of U or V: u[j] and v[j] are column j (of the one factor
	// formed; the other is nil and every step on it is skipped), and
	// reordering swaps slice headers instead of their contents.
	pp := p - 1
	iter := 0
	eps := math.Pow(2, -52)
	tiny := math.Pow(2, -966)
	for p > 0 {
		if iter > 500 {
			return nil, errors.New("linalg: SVD failed to converge")
		}
		var k, kase int
		// Determine the action to take.
		for k = p - 2; k >= -1; k-- {
			if k == -1 {
				break
			}
			if math.Abs(e[k]) <= tiny+eps*(math.Abs(s[k])+math.Abs(s[k+1])) {
				e[k] = 0
				break
			}
		}
		if k == p-2 {
			kase = 4
		} else {
			var ks int
			for ks = p - 1; ks >= k; ks-- {
				if ks == k {
					break
				}
				t := 0.0
				if ks != p {
					t += math.Abs(e[ks])
				}
				if ks != k+1 {
					t += math.Abs(e[ks-1])
				}
				if math.Abs(s[ks]) <= tiny+eps*t {
					s[ks] = 0
					break
				}
			}
			if ks == k {
				kase = 3
			} else if ks == p-1 {
				kase = 1
			} else {
				kase = 2
				k = ks
			}
		}
		k++

		switch kase {
		case 1: // Deflate negligible s(p).
			f := e[p-2]
			e[p-2] = 0
			for j := p - 2; j >= k; j-- {
				t := math.Hypot(s[j], f)
				cs := s[j] / t
				sn := f / t
				s[j] = t
				if j != k {
					f = -sn * e[j-1]
					e[j-1] = cs * e[j-1]
				}
				if v != nil {
					rotate(v[j], v[p-1], cs, -sn)
				}
			}
		case 2: // Split at negligible s(k).
			f := e[k-1]
			e[k-1] = 0
			for j := k; j < p; j++ {
				t := math.Hypot(s[j], f)
				cs := s[j] / t
				sn := f / t
				s[j] = t
				f = -sn * e[j]
				e[j] = cs * e[j]
				if u != nil {
					rotate(u[j], u[k-1], cs, -sn)
				}
			}
		case 3: // Perform one QR step.
			// Calculate the shift.
			scale := math.Max(math.Max(math.Max(math.Max(
				math.Abs(s[p-1]), math.Abs(s[p-2])), math.Abs(e[p-2])),
				math.Abs(s[k])), math.Abs(e[k]))
			sp := s[p-1] / scale
			spm1 := s[p-2] / scale
			epm1 := e[p-2] / scale
			sk := s[k] / scale
			ek := e[k] / scale
			b := ((spm1+sp)*(spm1-sp) + epm1*epm1) / 2
			c := (sp * epm1) * (sp * epm1)
			shift := 0.0
			if b != 0 || c != 0 {
				shift = math.Sqrt(b*b + c)
				if b < 0 {
					shift = -shift
				}
				shift = c / (b + shift)
			}
			f := (sk+sp)*(sk-sp) + shift
			g := sk * ek
			// Chase zeros.
			for j := k; j < p-1; j++ {
				t := math.Hypot(f, g)
				cs := f / t
				sn := g / t
				if j != k {
					e[j-1] = t
				}
				f = cs*s[j] + sn*e[j]
				e[j] = cs*e[j] - sn*s[j]
				g = sn * s[j+1]
				s[j+1] = cs * s[j+1]
				if v != nil {
					rotate(v[j], v[j+1], cs, -sn)
				}
				t = math.Hypot(f, g)
				cs = f / t
				sn = g / t
				s[j] = t
				f = cs*e[j] + sn*s[j+1]
				s[j+1] = -sn*e[j] + cs*s[j+1]
				g = sn * e[j+1]
				e[j+1] = cs * e[j+1]
				if j < m-1 && u != nil {
					rotate(u[j], u[j+1], cs, -sn)
				}
			}
			e[p-2] = f
			iter++
		case 4: // Convergence.
			// Make the singular values positive.
			if s[k] <= 0 {
				if s[k] < 0 {
					s[k] = -s[k]
				} else {
					s[k] = 0
				}
				if v != nil {
					vk := v[k][:pp+1]
					for i, x := range vk {
						vk[i] = -x
					}
				}
			}
			// Order the singular values.
			for k < pp {
				if s[k] >= s[k+1] {
					break
				}
				s[k], s[k+1] = s[k+1], s[k]
				if k < n-1 && v != nil {
					v[k], v[k+1] = v[k+1], v[k]
				}
				if k < m-1 && u != nil {
					u[k], u[k+1] = u[k+1], u[k]
				}
				k++
			}
			iter = 0
			p--
		}
	}
	if u != nil {
		return &SVDFactor{U: fromColumns(u, m), S: s[:n]}, nil
	}
	return &SVDFactor{U: fromColumns(v, n), S: s[:n]}, nil
}

// reflectRows applies the Householder reflection held in row k of t, from
// column c on, to every row j > k: t[j][c:] += (−(x·t[j][c:])/x[0])·x with
// x = t[k][c:]. The reflection leaves x alone, so every row's dot product is
// taken first, four rows per pass over x (dots is scratch); each is still
// one sum from +0 over ascending columns, as Dot adds it.
func reflectRows(t *Matrix, k, c int, dots []float64) {
	x := t.Row(k)[c:]
	n := len(x)
	row := func(j int) []float64 { return t.Data[(k+1+j)*t.Cols+c:][:n] }
	dots = dots[:t.Rows-k-1]
	j := 0
	for ; j+4 <= len(dots); j += 4 {
		r0, r1, r2, r3 := row(j), row(j+1), row(j+2), row(j+3)
		var s0, s1, s2, s3 float64
		for i, xi := range x {
			s0 += xi * r0[i]
			s1 += xi * r1[i]
			s2 += xi * r2[i]
			s3 += xi * r3[i]
		}
		dots[j], dots[j+1], dots[j+2], dots[j+3] = s0, s1, s2, s3
	}
	for ; j < len(dots); j++ {
		dots[j] = Dot(x, row(j))
	}
	for j, d := range dots {
		addScaled(row(j), x, -d/x[0])
	}
}

// rowSlices returns the rows of a as slices into its storage.
func rowSlices(a *Matrix) [][]float64 {
	rows := make([][]float64, a.Rows)
	for i := range rows {
		rows[i] = a.Row(i)
	}
	return rows
}

// fromColumns returns the r×len(cols) matrix whose column j is cols[j].
func fromColumns(cols [][]float64, r int) *Matrix {
	out := NewMatrix(r, len(cols))
	for j, c := range cols {
		for i, x := range c[:r] {
			out.Data[i*len(cols)+j] = x
		}
	}
	return out
}
