package linalg

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzKernels runs every kernel of kernels.go on operands whose lengths
// (0–70), start offsets within their allocations and bit patterns (±0,
// subnormals, ±Inf and NaN included: the values are raw fuzz bytes) the
// fuzzer picks, and holds the AVX2 result to the portable one bit for bit,
// NaN = NaN. On a host without AVX2 both runs take the portable loops and
// the target only checks that nothing panics.
//
// raw is read eight bytes per value, cycling; n and m are the lengths (n
// the vectors' and columns', m the rows' and rotations'); off is the
// element offset of every operand. The exponential reads raw from its start
// again, τ first and then d, and is held to math.Exp itself on both paths.
// The kernel matrix (kernels.Matrix, m points of n%41 features, read after
// the exponential's operands, at τ = |the next value|) is held on both paths
// to the pairwise loop it replaced: one Gaussian per pair, mirrored, with a
// diagonal of 1.
func FuzzKernels(f *testing.F) {
	add := func(vals []float64, n, m, off uint8) {
		raw := make([]byte, 8*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint64(raw[8*i:], math.Float64bits(v))
		}
		f.Add(raw, n, m, off)
	}
	add(nil, 0, 0, 0)
	add([]float64{1, -2, 0.5, 3, 0.6, 0.8, -7, 1e-3}, 16, 6, 1)
	add([]float64{0, math.Copysign(0, -1), 5e-324, -2.5e-310, math.Inf(1), 0.6, math.Inf(-1), math.NaN(), 1e308, -1e-300, 0.8}, 33, 17, 3)
	add([]float64{1e200, -1e-160, 2, math.NaN(), 0, 3e-320, -0.25}, 70, 70, 2)
	// ExpNegScaledInto: τ, then d; −d/τ on the edges of math.Exp's branches.
	add([]float64{1, 708.39, 708.3964185322641, 708.4, 708.74, 708.75, 745.13, 745.1332191019411, 745.14, 700}, 37, 0, 1)
	add([]float64{1, -709.43, -709.436, -709.5, -709.78, -709.782712893384, -709.79, -709}, 29, 0, 0)
	add([]float64{1, 745.4828, 745.48, 745.49, 745.5, 746, 1e10, -1e10, 1e300}, 35, 0, 2)
	add([]float64{1, 0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 5e-324, -5e-324, -2.5e-310, -3.5}, 41, 0, 3)
	add([]float64{1e-300, 1e-303, 5e-301, 1e-310, 2e-300, 7.08e-298, 7.4513e-298}, 22, 0, 2)
	add([]float64{1e300, 1e302, 7e302, 1e308, 5e300, -7.0943e302, 7.451e302}, 23, 0, 1)

	f.Fuzz(func(t *testing.T, raw []byte, n8, m8, off8 uint8) {
		n, m, off := int(n8)%71, int(m8)%71, int(off8)%4
		at := 0
		draw := func() float64 {
			if len(raw) < 8 {
				return 0
			}
			if at+8 > len(raw) {
				at = 0
			}
			v := math.Float64frombits(binary.LittleEndian.Uint64(raw[at:]))
			at += 8
			return v
		}
		vec := func(k int) []float64 { return offsetSlice(k, off, draw) }
		// both runs kernel on the portable loops, then on the assembly, and
		// compares what each returns; kernel must work on copies of the
		// operands it changes.
		both := func(name string, kernel func() []float64) {
			t.Helper()
			defer func(was bool) { useAVX2 = was }(useAVX2)
			useAVX2 = false
			want := kernel()
			useAVX2 = haveAVX2
			mustSameBits(t, name, kernel(), want)
		}
		cp := func(s []float64) []float64 { return offsetCopy(s, off) }

		lo, hi, c, s := vec(n), vec(n), draw(), draw()
		both("rotate", func() []float64 {
			l, h := cp(lo), cp(hi)
			rotate(l, h, c, s)
			return append(l, h...)
		})

		rots, stride := m%9, n+off
		strip, cs := vec(rots*stride+n), vec(2*rots)
		both("sweep", func() []float64 {
			v := cp(strip)
			sweep(v, stride, n, cs)
			return v
		})

		t0, e0, d0, f, g := vec(n), vec(n), vec(n), draw(), draw()
		both("subScaled", func() []float64 {
			x := cp(t0)
			subScaled(x, d0, g)
			return x
		})
		both("subRank2", func() []float64 {
			x := cp(t0)
			subRank2(x, e0, d0, f, g)
			return x
		})
		both("addScaled", func() []float64 {
			x := cp(t0)
			addScaled(x, d0, g)
			return x
		})

		sd, se := vec(n), vec(n)
		sm := vec(symvCols*(n+off) + 1)
		var sf, sg [symvCols]float64
		for l := range sf {
			sf[l], sg[l] = draw(), draw()
		}
		both("symv", func() []float64 {
			e, g := cp(se), sg
			symv(sm, n+off, sd, e, &sf, &g)
			return append(e, g[:]...)
		})

		w, rows := n, m/2
		if m%2 == 0 {
			w = 16 // the width accumulate uses, which the assembly takes
		}
		blk, gv, dv := vec(rows*w), vec(w), vec(rows)
		both("subOuter", func() []float64 {
			b := cp(blk)
			subOuter(b, gv, dv)
			return b
		})

		mat, v := NewMatrixFrom(m, n, vec(m*n)), vec(m)
		both("TMulVecInto", func() []float64 {
			out := offsetSlice(n, off, math.NaN)
			mat.TMulVecInto(out, v)
			return out
		})
		both("SqDistCols", func() []float64 {
			out := offsetSlice(n, off, math.NaN)
			SqDistCols(out, mat, v)
			return out
		})

		at = 0
		tau := draw()
		d := vec(n)
		both("ExpNegScaledInto", func() []float64 {
			out := offsetSlice(n, off, math.NaN)
			ExpNegScaledInto(out, d, tau)
			for i, x := range d {
				if want := math.Exp(-x / tau); !sameBits(out[i], want) {
					t.Fatalf("ExpNegScaledInto: element %d = %v (%#x), math.Exp(−%v/%v) = %v (%#x)", i, out[i], math.Float64bits(out[i]), x, tau, want, math.Float64bits(want))
				}
			}
			inPlace := cp(d)
			ExpNegScaledInto(inPlace, inPlace, tau)
			mustSameBits(t, "ExpNegScaledInto in place", inPlace, out)
			return out
		})

		pts, tauK := NewMatrixFrom(m, n%41, vec(m*(n%41))), math.Abs(draw())
		if !(tauK > 0) {
			return
		}
		want := gaussianPairwise(pts, tauK)
		both("kernel matrix", func() []float64 {
			got := KernelMatrix(pts, tauK)
			mustSameBits(t, "kernel matrix vs the pairwise loop", got.Data, want.Data)
			return got.Data
		})
	})
}

// KernelMatrix is kernels.Matrix. That package imports this one, so the
// tests here cannot import it; main_test.go, in the external test package,
// sets it.
var KernelMatrix func(x *Matrix, tau float64) *Matrix

// gaussianPairwise is the kernel matrix as kernels.Matrix computed it before
// its blocked rows: exp(−Σ(xᵢ−xⱼ)²/τ) for each pair i < j, summed in feature
// order, mirrored to (j, i); 1 on the diagonal.
func gaussianPairwise(x *Matrix, tau float64) *Matrix {
	n := x.Rows
	k := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		k.Set(i, i, 1)
		for j := i + 1; j < n; j++ {
			d := 0.0
			for f, v := range x.Row(i) {
				e := v - x.At(j, f)
				d += e * e
			}
			v := math.Exp(-d / tau)
			k.Set(i, j, v)
			k.Set(j, i, v)
		}
	}
	return k
}
