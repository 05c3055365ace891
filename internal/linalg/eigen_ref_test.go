package linalg

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/statutil"
)

// The reference below is the EISPACK tred2/tql2 pair as this package ran it
// before the transposed store: the column-major loops over a row-major
// Matrix through At/Set. It stays here as the oracle that the cache-friendly
// versions in eigen.go are held to, bit for bit.

// tred2Ref reduces the symmetric matrix stored in v to tridiagonal form,
// accumulating the Householder transformations in v; d receives the
// diagonal, e the subdiagonal.
func tred2Ref(v *Matrix, d, e []float64) {
	n := v.Rows
	for j := 0; j < n; j++ {
		d[j] = v.At(n-1, j)
	}
	for i := n - 1; i > 0; i-- {
		scale := 0.0
		h := 0.0
		for k := 0; k < i; k++ {
			scale += math.Abs(d[k])
		}
		if scale == 0 {
			e[i] = d[i-1]
			for j := 0; j < i; j++ {
				d[j] = v.At(i-1, j)
				v.Set(i, j, 0)
				v.Set(j, i, 0)
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
			for j := 0; j < i; j++ {
				f = d[j]
				v.Set(j, i, f)
				g = e[j] + v.At(j, j)*f
				for k := j + 1; k <= i-1; k++ {
					g += v.At(k, j) * d[k]
					e[k] += v.At(k, j) * f
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
			for j := 0; j < i; j++ {
				fj := d[j]
				gj := e[j]
				for k := j; k <= i-1; k++ {
					v.Set(k, j, v.At(k, j)-(fj*e[k]+gj*d[k]))
				}
			}
			for j := 0; j < i; j++ {
				d[j] = v.At(i-1, j)
				v.Set(i, j, 0)
			}
		}
		d[i] = h
	}
	// Accumulate transformations.
	for i := 0; i < n-1; i++ {
		v.Set(n-1, i, v.At(i, i))
		v.Set(i, i, 1)
		h := d[i+1]
		if h != 0 {
			for k := 0; k <= i; k++ {
				d[k] = v.At(k, i+1) / h
			}
			for j := 0; j < i+1; j++ {
				g := 0.0
				for k := 0; k <= i; k++ {
					g += v.At(k, i+1) * v.At(k, j)
				}
				for k := 0; k <= i; k++ {
					v.Set(k, j, v.At(k, j)-g*d[k])
				}
			}
		}
		for k := 0; k <= i; k++ {
			v.Set(k, i+1, 0)
		}
	}
	for j := 0; j < n; j++ {
		d[j] = v.At(n-1, j)
		v.Set(n-1, j, 0)
	}
	v.Set(n-1, n-1, 1)
	e[0] = 0
}

// tql2Ref is the implicit QL algorithm on (d, e), updating the accumulated
// transformations in v.
func tql2Ref(v *Matrix, d, e []float64) error {
	n := v.Rows
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
					// Accumulate transformation.
					cc, ss := c, s
					for k := 0; k < n; k++ {
						hk := v.At(k, i+1)
						v.Set(k, i+1, ss*v.At(k, i)+cc*hk)
						v.Set(k, i, cc*v.At(k, i)-ss*hk)
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

// symEigRef is SymEig over the reference routines: symmetrize from the lower
// triangle, decompose, sort descending, eigenvectors as columns.
func symEigRef(t *testing.T, a *Matrix) ([]float64, *Matrix) {
	t.Helper()
	n := a.Rows
	v := a.Clone()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v.Set(i, j, v.At(j, i))
		}
	}
	d := make([]float64, n)
	e := make([]float64, n)
	tred2Ref(v, d, e)
	if err := tql2Ref(v, d, e); err != nil {
		t.Fatal(err)
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(p, q int) bool { return d[idx[p]] > d[idx[q]] })
	vals := make([]float64, n)
	vecs := NewMatrix(n, n)
	for c, j := range idx {
		vals[c] = d[j]
		for i := 0; i < n; i++ {
			vecs.Set(i, c, v.At(i, j))
		}
	}
	return vals, vecs
}

// randEquivMatrix draws an r×c matrix of normal entries with every 13th one
// an exact zero, so the zero-skip paths run.
func randEquivMatrix(seed int64, r, c int) *Matrix {
	rng := statutil.NewRNG(seed, "linalg-equiv")
	m := NewMatrix(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	for i := 0; i < len(m.Data); i += 13 {
		m.Data[i] = 0
	}
	return m
}

// exactEqual fails unless got and want have the same shape and the same
// elements, NaN matching NaN.
func exactEqual(t *testing.T, name string, got, want *Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, v := range got.Data {
		if v != want.Data[i] && !(math.IsNaN(v) && math.IsNaN(want.Data[i])) {
			t.Fatalf("%s: element %d = %v, want %v", name, i, v, want.Data[i])
		}
	}
}

// spdMatrix builds a deterministic symmetric PSD matrix with a decaying
// spectrum, the shape of a centered Gaussian kernel: A = G·D·Gᵀ with G's
// entries drawn by splitmix64 from seed and D = diag(0.9^i).
func spdMatrix(n int, seed uint64) *Matrix {
	g := NewMatrix(n, n)
	for i := range g.Data {
		seed += 0x9E3779B97F4A7C15
		z := (seed ^ (seed >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		g.Data[i] = float64((z^(z>>31))>>11)/(1<<53) - 0.5
	}
	d := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		d.Set(i, i, math.Pow(0.9, float64(i)))
	}
	return g.Mul(d).MulT(g)
}

// templateKernel builds the matrix kcca.Train decomposes, at n rows: a
// centered Gaussian kernel over rows that cluster around 24 templates whose
// magnitudes spread over orders of magnitude, as plan features do. Its
// spectrum has one large eigenvalue per template and then decays, so tql2
// deflates at uneven depths.
func templateKernel(n int) *Matrix {
	const dim, templates = 12, 24
	rng := statutil.NewRNG(int64(n), "template-kernel")
	centers := NewMatrix(templates, dim)
	for c := 0; c < templates; c++ {
		mag := 2 * math.Exp(0.6*rng.NormFloat64())
		for j := range centers.Row(c) {
			centers.Row(c)[j] = mag * rng.NormFloat64()
		}
	}
	x := NewMatrix(n, dim)
	for i := 0; i < n; i++ {
		mu := centers.Row(rng.Intn(templates))
		for j := range x.Row(i) {
			x.Row(i)[j] = mu[j] + 0.05*rng.NormFloat64()
		}
	}
	k := NewMatrix(n, n)
	mean := 0.0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			d := Dist(x.Row(i), x.Row(j))
			d *= d
			k.Set(i, j, d)
			mean += d / float64(n*n)
		}
	}
	rowMean := make([]float64, n)
	grand := 0.0
	for i := range k.Data {
		k.Data[i] = math.Exp(-k.Data[i] / (0.1 * mean))
		rowMean[i/n] += k.Data[i] / float64(n)
		grand += k.Data[i] / float64(n*n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			k.Set(i, j, k.At(i, j)-rowMean[i]-rowMean[j]+grand)
		}
	}
	return k
}

// TestSymEigBitIdenticalToReference holds the transposed-store solver to the
// column-walking reference on dense, asymmetric-upper, block-diagonal (the
// scale == 0 branch), diagonal and rank-deficient inputs, and TopEigenInPlace
// to the matching leading columns. The sizes around 16 cross the strip
// width of accumulate's column blocks and of tql2's rotation sweeps from both
// sides (and 15 is less than one block); the template kernel is the stock
// sliding window's shape. The small cases run again with tql2's rotation log
// bounded at one and at seven rotations, so that it is flushed over and over,
// mid-sweep included.
func TestSymEigBitIdenticalToReference(t *testing.T) {
	cases := map[string]*Matrix{
		"spd-1":           spdMatrix(1, 1),
		"spd-2":           spdMatrix(2, 2),
		"spd-15":          spdMatrix(15, 15),
		"spd-16":          spdMatrix(16, 16),
		"spd-17":          spdMatrix(17, 17),
		"spd-33":          spdMatrix(33, 33),
		"spd-37":          spdMatrix(37, 37),
		"spd-150":         spdMatrix(150, 150),
		"template-kernel": templateKernel(500),
	}
	x := randEquivMatrix(5, 90, 60)
	cases["gram-sprinkled-zeros"] = x.TMul(x)
	lowRank := randEquivMatrix(6, 70, 9)
	cases["rank-deficient"] = lowRank.MulT(lowRank)
	noisyUpper := spdMatrix(40, 9)
	for i := 0; i < 40; i++ {
		for j := i + 1; j < 40; j++ {
			noisyUpper.Set(i, j, noisyUpper.At(i, j)+1e-3) // must be ignored
		}
	}
	cases["asymmetric-upper"] = noisyUpper
	blocks := NewMatrix(30, 30)
	for b := 0; b < 3; b++ {
		blk := spdMatrix(10, uint64(20+b))
		for i := 0; i < 10; i++ {
			copy(blocks.Row(10*b + i)[10*b:10*b+10], blk.Row(i))
		}
	}
	cases["block-diagonal"] = blocks
	diag := NewMatrix(12, 12)
	for i := 0; i < 12; i++ {
		diag.Set(i, i, float64((i*7)%5))
	}
	cases["diagonal-with-ties"] = diag

	for name, a := range cases {
		t.Run(name, func(t *testing.T) {
			before := a.Clone()
			wantVals, wantVecs := symEigRef(t, a)
			got, err := SymEig(a)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			exactEqual(t, name+": SymEig left its input", a, before)
			for i, v := range got.Values {
				if v != wantVals[i] && !(math.IsNaN(v) && math.IsNaN(wantVals[i])) {
					t.Fatalf("%s: eigenvalue %d = %v, reference %v", name, i, v, wantVals[i])
				}
			}
			exactEqual(t, name+": vectors", got.Vectors, wantVecs)

			r := (a.Rows + 2) / 3
			vals, vecs, err := TopEigenInPlace(a.Clone(), r)
			if err != nil {
				t.Fatalf("%s: in place: %v", name, err)
			}
			if len(vals) != r {
				t.Fatalf("%s: in place returned %d values, want %d", name, len(vals), r)
			}
			for i, v := range vals {
				if v != wantVals[i] {
					t.Fatalf("%s: in-place eigenvalue %d = %v, reference %v", name, i, v, wantVals[i])
				}
			}
			exactEqual(t, name+": in-place vectors", vecs, wantVecs.SliceCols(0, r))

			if a.Rows > 150 {
				return
			}
			for _, logLen := range []int{1, 7} {
				vals, vecs, err := topEigen(a.Clone(), a.Rows, logLen)
				if err != nil {
					t.Fatalf("%s: log of %d: %v", name, logLen, err)
				}
				for i, v := range vals {
					if v != wantVals[i] {
						t.Fatalf("%s: log of %d: eigenvalue %d = %v, reference %v", name, logLen, i, v, wantVals[i])
					}
				}
				exactEqual(t, fmt.Sprintf("%s: log of %d: vectors", name, logLen), vecs, wantVecs)
			}
		})
	}
}

func TestTopEigenInPlaceEdgeCases(t *testing.T) {
	if vals, vecs, err := TopEigenInPlace(NewMatrix(0, 0), 3); err != nil || len(vals) != 0 || vecs.Rows != 0 {
		t.Fatalf("empty: vals %v vecs %v err %v", vals, vecs, err)
	}
	if _, _, err := TopEigenInPlace(NewMatrix(2, 3), 1); err == nil {
		t.Fatal("non-square input accepted")
	}
	vals, vecs, err := TopEigenInPlace(spdMatrix(5, 3), 9) // r clamps to n
	if err != nil || len(vals) != 5 || vecs.Rows != 5 || vecs.Cols != 5 {
		t.Fatalf("clamp: %d values, %dx%d vectors, err %v", len(vals), vecs.Rows, vecs.Cols, err)
	}
}
