package linalg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/statutil"
)

// The reference below is the JAMA Golub–Kahan SVD as this package ran it
// before the transposed store: the column-walking loops over row-major
// matrices through At/Set, and the Givens rotations through the strided
// rotateColsRef. It stays here as the oracle that svd.go is held to, bit
// for bit (TestSVDBitIdenticalToReference).

// svdRefFactor is the full thin decomposition A = U · diag(S) · Vᵀ the
// reference computes; SVD returns only its U and S.
type svdRefFactor struct {
	U *Matrix
	S []float64
	V *Matrix
}

// svdRef is the three-factor SVD over the reference routine.
func svdRef(a *Matrix) (*svdRefFactor, error) {
	if a.Rows >= a.Cols {
		return svdTallRef(a)
	}
	f, err := svdTallRef(a.T())
	if err != nil {
		return nil, err
	}
	return &svdRefFactor{U: f.V, S: f.S, V: f.U}, nil
}

// svdTallRef implements the Golub-Reinsch algorithm (JAMA translation) for
// m >= n.
func svdTallRef(arg *Matrix) (*svdRefFactor, error) {
	a := arg.Clone()
	m, n := a.Rows, a.Cols
	if n == 0 {
		return &svdRefFactor{U: NewMatrix(m, 0), S: nil, V: NewMatrix(0, 0)}, nil
	}
	nu := n
	s := make([]float64, n+1)
	u := NewMatrix(m, nu)
	v := NewMatrix(n, n)
	e := make([]float64, n)
	work := make([]float64, m)

	// Reduce a to bidiagonal form, storing the diagonal elements in s and
	// the super-diagonal elements in e.
	nct := min(m-1, n)
	nrt := max(0, min(n-2, m))
	for k := 0; k < max(nct, nrt); k++ {
		if k < nct {
			// Compute the 2-norm of the k-th column of a below the diagonal.
			s[k] = 0
			for i := k; i < m; i++ {
				s[k] = math.Hypot(s[k], a.At(i, k))
			}
			if s[k] != 0 {
				if a.At(k, k) < 0 {
					s[k] = -s[k]
				}
				for i := k; i < m; i++ {
					a.Set(i, k, a.At(i, k)/s[k])
				}
				a.Set(k, k, a.At(k, k)+1)
			}
			s[k] = -s[k]
		}
		for j := k + 1; j < n; j++ {
			if k < nct && s[k] != 0 {
				// Apply the transformation.
				t := 0.0
				for i := k; i < m; i++ {
					t += a.At(i, k) * a.At(i, j)
				}
				t = -t / a.At(k, k)
				for i := k; i < m; i++ {
					a.Set(i, j, a.At(i, j)+t*a.At(i, k))
				}
			}
			e[j] = a.At(k, j)
		}
		if k < nct {
			for i := k; i < m; i++ {
				u.Set(i, k, a.At(i, k))
			}
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
				for i := k + 1; i < m; i++ {
					work[i] = 0
				}
				for j := k + 1; j < n; j++ {
					for i := k + 1; i < m; i++ {
						work[i] += e[j] * a.At(i, j)
					}
				}
				for j := k + 1; j < n; j++ {
					t := -e[j] / e[k+1]
					for i := k + 1; i < m; i++ {
						a.Set(i, j, a.At(i, j)+t*work[i])
					}
				}
			}
			for i := k + 1; i < n; i++ {
				v.Set(i, k, e[i])
			}
		}
	}

	// Set up the final bidiagonal matrix of order p.
	p := min(n, m+1)
	if nct < n {
		s[nct] = a.At(nct, nct)
	}
	if m < p {
		s[p-1] = 0
	}
	if nrt+1 < p {
		e[nrt] = a.At(nrt, p-1)
	}
	e[p-1] = 0

	// Generate U.
	for j := nct; j < nu; j++ {
		for i := 0; i < m; i++ {
			u.Set(i, j, 0)
		}
		u.Set(j, j, 1)
	}
	for k := nct - 1; k >= 0; k-- {
		if s[k] != 0 {
			for j := k + 1; j < nu; j++ {
				t := 0.0
				for i := k; i < m; i++ {
					t += u.At(i, k) * u.At(i, j)
				}
				t = -t / u.At(k, k)
				for i := k; i < m; i++ {
					u.Set(i, j, u.At(i, j)+t*u.At(i, k))
				}
			}
			for i := k; i < m; i++ {
				u.Set(i, k, -u.At(i, k))
			}
			u.Set(k, k, 1+u.At(k, k))
			for i := 0; i < k-1; i++ {
				u.Set(i, k, 0)
			}
		} else {
			for i := 0; i < m; i++ {
				u.Set(i, k, 0)
			}
			u.Set(k, k, 1)
		}
	}

	// Generate V.
	for k := n - 1; k >= 0; k-- {
		if k < nrt && e[k] != 0 {
			for j := k + 1; j < nu; j++ {
				t := 0.0
				for i := k + 1; i < n; i++ {
					t += v.At(i, k) * v.At(i, j)
				}
				t = -t / v.At(k+1, k)
				for i := k + 1; i < n; i++ {
					v.Set(i, j, v.At(i, j)+t*v.At(i, k))
				}
			}
		}
		for i := 0; i < n; i++ {
			v.Set(i, k, 0)
		}
		v.Set(k, k, 1)
	}

	// Main iteration loop for the singular values.
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
				for i := 0; i < n; i++ {
					t = cs*v.At(i, j) + sn*v.At(i, p-1)
					v.Set(i, p-1, -sn*v.At(i, j)+cs*v.At(i, p-1))
					v.Set(i, j, t)
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
				for i := 0; i < m; i++ {
					t = cs*u.At(i, j) + sn*u.At(i, k-1)
					u.Set(i, k-1, -sn*u.At(i, j)+cs*u.At(i, k-1))
					u.Set(i, j, t)
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
				rotateColsRef(v, j, cs, sn)
				t = math.Hypot(f, g)
				cs = f / t
				sn = g / t
				s[j] = t
				f = cs*e[j] + sn*s[j+1]
				s[j+1] = -sn*e[j] + cs*s[j+1]
				g = sn * e[j+1]
				e[j+1] = cs * e[j+1]
				if j < m-1 {
					rotateColsRef(u, j, cs, sn)
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
				for i := 0; i <= pp; i++ {
					v.Set(i, k, -v.At(i, k))
				}
			}
			// Order the singular values.
			for k < pp {
				if s[k] >= s[k+1] {
					break
				}
				s[k], s[k+1] = s[k+1], s[k]
				if k < n-1 {
					for i := 0; i < n; i++ {
						t := v.At(i, k+1)
						v.Set(i, k+1, v.At(i, k))
						v.Set(i, k, t)
					}
				}
				if k < m-1 {
					for i := 0; i < m; i++ {
						t := u.At(i, k+1)
						u.Set(i, k+1, u.At(i, k))
						u.Set(i, k, t)
					}
				}
				k++
			}
			iter = 0
			p--
		}
	}
	return &svdRefFactor{U: u, S: s[:n], V: v}, nil
}

// rotateColsRef applies the Givens rotation (cs, sn) to columns (j, j+1) of a.
func rotateColsRef(a *Matrix, j int, cs, sn float64) {
	for i := 0; i < a.Rows; i++ {
		t := cs*a.At(i, j) + sn*a.At(i, j+1)
		a.Set(i, j+1, -sn*a.At(i, j)+cs*a.At(i, j+1))
		a.Set(i, j, t)
	}
}

// stockWhitened reads testdata/stock-whitened-xcov.bin: the 80×80 whitened
// cross-covariance Lx⁻¹·Sxy·Ly⁻ᵀ that cca.Fit decomposed inside core.Train
// on the daemon's 800 stock boot queries (testutil.StockQueries), written by
// the commit before the transposed SVD as two little-endian uint32s (rows,
// cols) and then the row-major float64s. It is an input, not an expected
// output: never regenerate it to make a test pass.
func stockWhitened(t testing.TB) *Matrix {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "stock-whitened-xcov.bin"))
	if err != nil {
		t.Fatal(err)
	}
	r, c := int(binary.LittleEndian.Uint32(raw)), int(binary.LittleEndian.Uint32(raw[4:]))
	if len(raw) != 8+8*r*c {
		t.Fatalf("stock whitened matrix: %d bytes for %dx%d", len(raw), r, c)
	}
	m := NewMatrix(r, c)
	for i := range m.Data {
		m.Data[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8+8*i:]))
	}
	return m
}

// TestSVDBitIdenticalToReference holds the transposed-store SVD, which
// forms only U, to the column-walking three-factor JAMA reference, U and S
// bit for bit, on tall, square and wide inputs (a wide input's U is the V of
// the transposed problem) (the sizes straddle rotate's four-element blocks), rank-
// deficient ones, a zero column, entries spanning 1e−150 to 1e150, sparse
// ternary ones (every branch of the iteration), and the stock whitened
// cross-covariance cca.Fit decomposes. The suite runs on the
// AVX2 kernels and again on the portable loops (kerneltest.Main).
func TestSVDBitIdenticalToReference(t *testing.T) {
	cases := map[string]*Matrix{
		"1x1":            randEquivMatrix(1, 1, 1),
		"tall-5x1":       randEquivMatrix(2, 5, 1),
		"wide-1x5":       randEquivMatrix(3, 1, 5),
		"tall-17x9":      randEquivMatrix(4, 17, 9),
		"tall-83x16":     randEquivMatrix(5, 83, 16),
		"square-4":       randEquivMatrix(6, 4, 4),
		"square-33":      randEquivMatrix(7, 33, 33),
		"wide-9x40":      randEquivMatrix(8, 9, 40),
		"wide-31x32":     randEquivMatrix(9, 31, 32),
		"stock-whitened": stockWhitened(t),
	}
	g, h := randEquivMatrix(10, 40, 4), randEquivMatrix(11, 4, 30)
	cases["rank-deficient-tall"] = g.Mul(h)
	cases["rank-deficient-wide"] = g.Mul(h).T()
	zeroCol := randEquivMatrix(12, 25, 12)
	for i := 0; i < zeroCol.Rows; i++ {
		zeroCol.Set(i, 5, 0)
	}
	cases["zero-column"] = zeroCol
	cases["zero-row-wide"] = zeroCol.T()
	spread := NewMatrix(30, 21)
	rng := statutil.NewRNG(13, "svd-spread")
	for i := range spread.Data {
		spread.Data[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(301)-150))
	}
	cases["spread-1e-150-1e150"] = spread
	cases["zeros"] = NewMatrix(6, 4)
	// Sparse matrices of −1, 0 and 1 leave exact zeros on the bidiagonal,
	// which is what sends the iteration through its deflation (negligible
	// s(p)) and split (negligible s(k)) branches.
	tern := statutil.NewRNG(14, "svd-ternary")
	for i := 0; i < 48; i++ {
		r, c := 2+tern.Intn(8), 2+tern.Intn(8)
		if i%8 == 0 {
			r, c = 9+tern.Intn(40), 9+tern.Intn(40)
		}
		m := NewMatrix(r, c)
		for j := range m.Data {
			if tern.Intn(3) > 0 {
				m.Data[j] = float64(tern.Intn(3) - 1)
			}
		}
		cases[fmt.Sprintf("ternary-%dx%d-%d", r, c, i)] = m
	}

	for name, a := range cases {
		t.Run(name, func(t *testing.T) {
			before := a.Clone()
			want, err := svdRef(a)
			if err != nil {
				t.Fatal(err)
			}
			got, err := SVD(a)
			if err != nil {
				t.Fatal(err)
			}
			mustSameBitsStrict(t, "SVD left its input", a.Data, before.Data)
			if got.U.Rows != want.U.Rows || got.U.Cols != want.U.Cols {
				t.Fatalf("U %dx%d; reference U %dx%d", got.U.Rows, got.U.Cols, want.U.Rows, want.U.Cols)
			}
			mustSameBitsStrict(t, "U", got.U.Data, want.U.Data)
			mustSameBitsStrict(t, "S", got.S, want.S)
		})
	}
}

// mustSameBitsStrict fails unless got and want hold the same bit patterns,
// NaNs included.
func mustSameBitsStrict(t *testing.T, ctx string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", ctx, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d = %v (%#x), reference %v (%#x)", ctx, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// BenchmarkSVDStock decomposes the stock whitened cross-covariance (80×80),
// the one SVD each kcca.Train runs, with SVD and with the column-walking
// three-factor reference.
func BenchmarkSVDStock(b *testing.B) {
	a := stockWhitened(b)
	for _, bc := range []struct {
		name string
		svd  func(*Matrix) error
	}{
		{"transposed", func(a *Matrix) error { _, err := SVD(a); return err }},
		{"reference", func(a *Matrix) error { _, err := svdRef(a); return err }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := bc.svd(a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
