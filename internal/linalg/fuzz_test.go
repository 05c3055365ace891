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
// element offset of every operand.
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
	})
}
