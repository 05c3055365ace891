package linalg

import (
	"fmt"
	"math"

	"repro/internal/obs"
)

// The kernels in this file are the loops that dominate predict (the basis
// product, the cross-kernel distances and their exponentials) and retrain
// (the eigensolver's updates and TMul's). Each has one portable loop, below,
// and on amd64 one AVX2 routine (kernels_amd64.s) that the exported wrapper
// hands the full blocks of its operands to; the portable loop finishes the
// tail, and does all of it where the assembly does not serve.
//
// The two forms agree bit for bit because a vector lane is one of the
// independent sums (or elements) the portable loop already keeps apart: a sum
// never spans lanes, and multiply and add stay separate instructions (no
// FMA), so each sum sees the same terms in the same order whichever form
// computed it. The one exception is the exponential, whose portable loop is
// math.Exp: its assembly runs the FMA branch of math.Exp's own assembly, the
// same instructions on the same constants, one lane per element, and serves
// only where math.Exp takes that branch. DESIGN.md §5 has the argument in
// full.

// useAVX2 says whether the assembly serves. It is decided once, at init,
// from CPUID and XGETBV (haveAVX2); only SetVectorKernels changes it.
var useAVX2 bool

var (
	avx2Gauge = obs.GetGauge("linalg.kernels.avx2")
	expGauge  = obs.GetGauge("linalg.kernels.exp")
)

func init() { SetVectorKernels(true) }

// VectorKernels reports whether the AVX2 kernels serve in this process.
func VectorKernels() bool { return useAVX2 }

// VectorExp reports whether ExpNegScaledInto runs four lanes at a time: the
// AVX2 kernels serve, the processor has FMA, and math.Exp takes the branch
// of its assembly that the kernel mirrors.
func VectorExp() bool { return useAVX2 && haveVectorExp }

// SetVectorKernels turns the AVX2 kernels on (where the processor has them)
// or off and returns the previous setting. It exists so that the suites of
// the packages built on these kernels can run on both paths; it must not be
// called while a kernel runs.
func SetVectorKernels(on bool) (was bool) {
	was, useAVX2 = useAVX2, on && haveAVX2
	avx2Gauge.Set(gaugeValue(useAVX2))
	expGauge.Set(gaugeValue(VectorExp()))
	return was
}

func gaugeValue(on bool) int64 {
	if on {
		return 1
	}
	return 0
}

// ExpNegScaledInto sets out[i] to math.Exp(-d[i]/tau), bit for bit, for
// every i; out may be d itself. Where VectorExp holds, whole groups of four
// go through the assembly, which also gives the +0 of math.Exp's underflow;
// a group with an element math.Exp answers on another branch (a NaN, +Inf or
// overflowing argument, a result at the subnormal edge) and the tail go
// through math.Exp itself.
func ExpNegScaledInto(out, d []float64, tau float64) {
	if len(d) != len(out) {
		panic(fmt.Sprintf("linalg: ExpNegScaledInto length mismatch %d -> %d", len(d), len(out)))
	}
	for i := 0; i < len(out); {
		i += expNegScaledBlocks(out[i:], d[i:], tau)
		for end := min(i+4, len(out)); i < end; i++ {
			out[i] = math.Exp(-d[i] / tau)
		}
	}
}

// TMulVecInto computes mᵀ·v into the caller-owned out (length m.Cols) from
// the natural row-major store, bit for bit what TMulVec returns: out[j] is
// Σᵢ v[i]·m[i][j] added for i ascending from zero, and a term whose v[i] is
// exactly zero is skipped as TMulVec skips it (adding 0·m[i][j] would turn
// an infinite entry into NaN).
//
// Where TMulVec loads and stores out[j] on every term, the sums here stay in
// registers, each on its own add chain. It runs on the calling goroutine and
// allocates nothing: the form for callers that apply one operator to many
// vectors and fan out over the vectors themselves.
func (m *Matrix) TMulVecInto(out, v []float64) {
	if len(v) != m.Rows || len(out) != m.Cols || len(m.Data) != m.Rows*m.Cols {
		panic(fmt.Sprintf("linalg: TMulVecInto dimension mismatch %dx%d (%d stored) ᵀ* %d -> %d", m.Rows, m.Cols, len(m.Data), len(v), len(out)))
	}
	tmulvecGo(out, m, v, tmulvecBlocks(out, m, v))
}

// tmulvecGo is TMulVecInto for columns lo and up: four columns — four sums —
// per pass over v.
func tmulvecGo(out []float64, m *Matrix, v []float64, lo int) {
	data, cols := m.Data, m.Cols
	j := lo
	for ; j+4 <= cols; j += 4 {
		var s0, s1, s2, s3 float64
		at := j
		for _, x := range v {
			if x != 0 {
				r := data[at : at+4 : at+4]
				s0 += x * r[0]
				s1 += x * r[1]
				s2 += x * r[2]
				s3 += x * r[3]
			}
			at += cols
		}
		out[j], out[j+1], out[j+2], out[j+3] = s0, s1, s2, s3
	}
	for ; j < cols; j++ {
		s := 0.0
		for i, x := range v {
			if x != 0 {
				s += x * data[i*cols+j]
			}
		}
		out[j] = s
	}
}

// SqDistCols sets out[i] to the squared Euclidean distance between q and
// column i of t: Σⱼ (t[j][i]−q[j])² added for j ascending. With t = x.T(),
// the feature-major copy of a point set, that is each point's SqDist4 sum
// (and math.Sqrt of it its Dist) bit for bit — the terms and their order are
// the same; what changes is that neighbouring points sit side by side in
// memory, so one pass over q carries as many sums as there are registers for.
func SqDistCols(out []float64, t *Matrix, q []float64) {
	if len(q) != t.Rows || len(out) != t.Cols || len(t.Data) != t.Rows*t.Cols {
		panic(fmt.Sprintf("linalg: SqDistCols dimension mismatch %dx%d (%d stored) vs %d -> %d", t.Rows, t.Cols, len(t.Data), len(q), len(out)))
	}
	sqDistColsGo(out, t, q, sqDistColsBlocks(out, t, q))
}

// sqDistColsGo is SqDistCols for columns lo and up, four columns per pass.
func sqDistColsGo(out []float64, t *Matrix, q []float64, lo int) {
	data, n := t.Data, t.Cols
	i := lo
	for ; i+4 <= n; i += 4 {
		var s0, s1, s2, s3 float64
		at := i
		for _, x := range q {
			r := data[at : at+4 : at+4]
			d0 := r[0] - x
			s0 += d0 * d0
			d1 := r[1] - x
			s1 += d1 * d1
			d2 := r[2] - x
			s2 += d2 * d2
			d3 := r[3] - x
			s3 += d3 * d3
			at += n
		}
		out[i], out[i+1], out[i+2], out[i+3] = s0, s1, s2, s3
	}
	for ; i < n; i++ {
		s := 0.0
		for j, x := range q {
			d := data[j*n+i] - x
			s += d * d
		}
		out[i] = s
	}
}

// rotate applies the Givens rotation (c, s) to the vector pair (lo, hi):
// lo ← c·lo − s·hi, hi ← s·lo + c·hi.
func rotate(lo, hi []float64, c, s float64) {
	hi = hi[:len(lo)]
	k := rotateBlocks(lo, hi, c, s)
	lo, hi = lo[k:], hi[k:]
	for k, x := range lo {
		hk := hi[k]
		hi[k] = s*x + c*hk
		lo[k] = c*x - s*hk
	}
}

// sweep applies a run of m = len(cs)/2 Givens rotations to the w columns of
// the rows 0..m of a strip (row p is v[p·stride:][:w]): rotation r, with
// (c, s) = (cs[2r], cs[2r+1]), is rotate on rows (m−r−1, m−r) — tql2's
// bottom-up order within a QL sweep. Each element sees exactly the
// operations rotate would apply to it, in the same order; the AVX2 form
// takes 16 columns at a time and carries row m−r−1 in registers into the
// next rotation, so each rotation loads and stores one row instead of two.
func sweep(v []float64, stride, w int, cs []float64) {
	m := len(cs) / 2
	if m == 0 || w == 0 {
		return
	}
	_ = v[m*stride+w-1]
	k := sweepBlocks(v, stride, w, cs)
	if k == w {
		return
	}
	for r := 0; r < m; r++ {
		hi := (m-r)*stride + k
		lo := hi - stride
		rotate(v[lo:lo+w-k], v[hi:hi+w-k], cs[2*r], cs[2*r+1])
	}
}

// subScaled computes t ← t − g·d, the update half of a Householder
// reflection once its dot product g is known.
func subScaled(t, d []float64, g float64) {
	d = d[:len(t)]
	k := subScaledBlocks(t, d, g)
	t, d = t[k:], d[k:]
	for k, x := range d {
		t[k] -= g * x
	}
}

// subOuter computes b ← b − d·gᵀ on the len(d) × len(g) row-major block b:
// row k is subScaled(b[k], g, d[k]). It is the update half of tred2's
// accumulation for a block of columns of V, one lane per column.
func subOuter(b, g, d []float64) {
	w := len(g)
	b = b[:len(d)*w]
	for k := subOuterBlocks(b, g, d); k < len(d); k++ {
		subScaled(b[k*w:(k+1)*w], g, d[k])
	}
}

// addScaled computes y ← y + a·x, one row update of TMul.
func addScaled(y, x []float64, a float64) {
	x = x[:len(y)]
	k := addScaledBlocks(y, x, a)
	y, x = y[k:], x[k:]
	for k, v := range x {
		y[k] += a * v
	}
}

// subRank2 computes t ← t − (f·e + g·d), one column of tred2's symmetric
// rank-2 update.
func subRank2(t, e, d []float64, f, g float64) {
	e, d = e[:len(t)], d[:len(t)]
	k := subRank2Blocks(t, e, d, f, g)
	t, e, d = t[k:], e[k:], d[k:]
	for k, x := range t {
		t[k] = x - (f*e[k] + g*d[k])
	}
}

// symvCols is the number of columns of V that symv carries at once.
const symvCols = 8

// symv is tred2's matrix-vector pass for symvCols columns of V together. Row
// l of the block is t[l·stride:][:len(e)] (the column's entries from the
// first row below the block on); for every k in order it adds
// t[l·stride+k]·d[k] to g[l], and it sets e[k] to
// e[k] + t[k]·f[0] + t[stride+k]·f[1] + … added for l ascending. That is what
// the one-column loop does to those entries, column after column: each g[l]
// is its own sum over k and each e[k] its own sum over l, so the AVX2 form
// gives a lane to four of either.
func symv(t []float64, stride int, d, e []float64, f, g *[symvCols]float64) {
	d = d[:len(e)]
	if len(e) == 0 {
		return
	}
	_ = t[(symvCols-1)*stride+len(e)-1]
	symvGo(t, stride, d, e, f, g, symvBlocks(t, stride, d, e, f, g))
}

// symvGo is symv for the entries from k = lo on.
func symvGo(t []float64, stride int, d, e []float64, f, g *[symvCols]float64, lo int) {
	n := len(e)
	r0, r1, r2, r3 := t[:n], t[stride:][:n], t[2*stride:][:n], t[3*stride:][:n]
	r4, r5, r6, r7 := t[4*stride:][:n], t[5*stride:][:n], t[6*stride:][:n], t[7*stride:][:n]
	g0, g1, g2, g3, g4, g5, g6, g7 := g[0], g[1], g[2], g[3], g[4], g[5], g[6], g[7]
	for k := lo; k < n; k++ {
		dk := d[k]
		x0, x1, x2, x3, x4, x5, x6, x7 := r0[k], r1[k], r2[k], r3[k], r4[k], r5[k], r6[k], r7[k]
		g0 += x0 * dk
		g1 += x1 * dk
		g2 += x2 * dk
		g3 += x3 * dk
		g4 += x4 * dk
		g5 += x5 * dk
		g6 += x6 * dk
		g7 += x7 * dk
		e[k] = e[k] + x0*f[0] + x1*f[1] + x2*f[2] + x3*f[3] + x4*f[4] + x5*f[5] + x6*f[6] + x7*f[7]
	}
	g[0], g[1], g[2], g[3], g[4], g[5], g[6], g[7] = g0, g1, g2, g3, g4, g5, g6, g7
}
