package linalg

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/statutil"
)

// The kernels of kernels.go are held to three things, bit for bit: the AVX2
// routine to the portable loop over the same layout, the portable loop to
// the form it replaced (TMulVec, Dist, the eigensolver's inline loops — the
// eigensolver as a whole to eigen_ref_test.go), and both to themselves on
// operands that start at any element offset.

// blockEdges crosses every block size the assembly has (4, 16, 32) from both
// sides; longRuns are the daemon's training-set sizes and their neighbours.
var (
	blockEdges = []int{0, 1, 3, 4, 15, 16, 17, 31, 32, 33, 80, 83}
	longRuns   = []int{1, 5, 500, 800, 801}
)

// kernelShapes pairs every block edge with every long run, both ways round.
func kernelShapes() [][2]int {
	var shapes [][2]int
	for _, a := range blockEdges {
		for _, b := range longRuns {
			shapes = append(shapes, [2]int{a, b}, [2]int{b, a})
		}
	}
	return shapes
}

// special draws from awkward's magnitudes plus the non-finite values.
func special(rng *statutil.RNG) float64 {
	switch rng.Intn(40) {
	case 0:
		return math.NaN()
	case 1:
		return math.Inf(1)
	case 2:
		return math.Inf(-1)
	default:
		return awkward(rng)
	}
}

// offsetSlice returns a slice of n values drawn from draw whose first element
// sits off elements into its allocation, so that it is not 32-byte aligned
// for odd off.
func offsetSlice(n, off int, draw func() float64) []float64 {
	s := make([]float64, off+n)[off:]
	for i := range s {
		s[i] = draw()
	}
	return s
}

// onBothPaths runs f as a subtest (or sub-benchmark) on the portable loops
// and, where the processor has AVX2, on the assembly.
func onBothPaths[T interface{ Run(string, func(T)) bool }](tb T, f func(T)) {
	defer func(was bool) { useAVX2 = was }(useAVX2)
	useAVX2 = false
	tb.Run("portable", f)
	if haveAVX2 {
		useAVX2 = true
		tb.Run("avx2", f)
	}
}

// offsetCopy is a copy of s placed like offsetSlice's result.
func offsetCopy(s []float64, off int) []float64 {
	out := make([]float64, off+len(s))[off:]
	copy(out, s)
	return out
}

func mustSameBits(t *testing.T, ctx string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", ctx, len(got), len(want))
	}
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s: element %d = %v (%#x), want %v (%#x)", ctx, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// nans returns n NaNs: a destination every element of which must be
// overwritten.
func nans(n int) []float64 { return offsetSlice(n, 0, math.NaN) }

func TestTMulVecIntoMatchesPortable(t *testing.T) {
	onBothPaths(t, func(t *testing.T) {
		rng := statutil.NewRNG(41, "tmulvecinto")
		for _, shape := range kernelShapes() {
			cols, rows := shape[0], shape[1]
			for variant, draw := range map[string]func() float64{
				"normal":  rng.NormFloat64,
				"special": func() float64 { return special(rng) },
			} {
				off := 1 + 2*rng.Intn(2)
				m := NewMatrixFrom(rows, cols, offsetSlice(rows*cols, off, draw))
				v := offsetSlice(rows, off, draw)
				check := func(name string) {
					t.Helper()
					ctx := fmt.Sprintf("%dx%d %s %s", rows, cols, variant, name)
					got := offsetSlice(cols, off, math.NaN)
					m.TMulVecInto(got, v)
					want := nans(cols)
					tmulvecGo(want, m, v, 0)
					mustSameBits(t, ctx+" against the portable loop", got, want)
					mustSameBits(t, ctx+" against TMulVec", got, m.TMulVec(v))
				}
				check("dense")
				if rows == 0 || cols == 0 {
					continue
				}
				// Exact zeros of both signs must skip their terms as TMulVec
				// does. With an infinite or NaN matrix entry on a skipped row
				// the difference is NaN versus a number; on a kept row it
				// must propagate identically.
				zr := rng.Intn(rows)
				v[zr] = 0
				v[rng.Intn(rows)] = math.Copysign(0, -1)
				m.Data[zr*cols+rng.Intn(cols)] = math.Inf(1)
				m.Data[zr*cols+rng.Intn(cols)] = math.NaN()
				check("inf under a zero")
				m.Data[rng.Intn(len(m.Data))] = math.Inf(-1)
				check("inf")
				// A v of nothing but zeros leaves every sum at +0 whatever the
				// matrix holds by now.
				for i := range v {
					v[i] = math.Copysign(0, float64(i%2)-0.5)
				}
				check("all zeros")
			}
		}
	})
}

func TestSqDistColsMatchesPortable(t *testing.T) {
	onBothPaths(t, func(t *testing.T) {
		rng := statutil.NewRNG(42, "sqdistcols")
		for _, shape := range kernelShapes() {
			points, dim := shape[0], shape[1]
			for variant, draw := range map[string]func() float64{
				"normal":  rng.NormFloat64,
				"special": func() float64 { return special(rng) },
			} {
				ctx := fmt.Sprintf("%d points × %d features %s", points, dim, variant)
				off := 1 + 2*rng.Intn(2)
				x := NewMatrixFrom(points, dim, offsetSlice(points*dim, off, draw))
				q := offsetSlice(dim, off, draw)
				if dim > 0 && points > 0 && variant == "special" {
					x.Data[rng.Intn(len(x.Data))] = 1e200 // the square overflows
				}
				xT := x.T()
				got := offsetSlice(points, off, math.NaN)
				SqDistCols(got, xT, q)
				want := nans(points)
				sqDistColsGo(want, xT, q, 0)
				mustSameBits(t, ctx+" against the portable loop", got, want)
				for i, s := range got {
					if d := Dist(x.Row(i), q); !sameBits(math.Sqrt(s), d) {
						t.Fatalf("%s: sqrt(out[%d]) = %v, Dist = %v", ctx, i, math.Sqrt(s), d)
					}
				}
			}
		}
	})
}

// expEdges are the arguments x = −d/τ around which math.Exp changes branch
// or its result changes kind: the largest finite results and the arguments
// archExp rounds to k = 1024 and answers +Inf (709.43 … 709.79), the first
// subnormal result (−708.40) and the k + 1023 = 0 edge of the denormal branch
// (−708.74), the last nonzero result (−745.13), the edge below which archExp
// answers +0 from its underflow branch (x·log₂e = −1075.5, x ≈ −745.48), the
// arguments too large for k's int32, and the zeros.
var expEdges = []float64{
	709.0, 709.43, 709.436, 709.5, 709.78, 709.782712893384, 709.79, 1e10,
	-708.0, -708.39, -708.3964185322641, -708.4, -708.74, -708.75,
	-745.13, -745.1332191019411, -745.14, -745.4828, -745.5, -746, -1000,
	-1e10, -1e300, 0, -1, 1,
}

// expArgs returns d values that put −d/τ on and around every edge, a few
// ulps either side, and the specials: ±0, NaN, ±Inf, subnormal and negative
// d.
func expArgs(tau float64) []float64 {
	d := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 5e-324, -5e-324, 2.5e-310, -1e-300, -3.5}
	for _, x := range expEdges {
		c := -x * tau
		lo, hi := c, c
		for k := 0; k < 6; k++ {
			d = append(d, lo, hi)
			lo, hi = math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1))
		}
	}
	return d
}

// TestExpNegScaledMatchesExp holds ExpNegScaledInto to math.Exp(−d/τ) for
// every element, bit for bit: on the edges of every branch of math.Exp at
// scales from 1e-300 to 1e300, with each edge value at every position within
// a group of four, in place and out of place; and over a dense sweep of the
// arguments that take the main path or underflow to +0. Where the
// lane-wise form serves, those sweeps must be answered by the assembly alone.
func TestExpNegScaledMatchesExp(t *testing.T) {
	onBothPaths(t, func(t *testing.T) {
		check := func(ctx string, d []float64, tau float64) {
			t.Helper()
			want := make([]float64, len(d))
			for i, x := range d {
				want[i] = math.Exp(-x / tau)
			}
			for _, off := range []int{0, 1, 3} {
				got := offsetSlice(len(d), off, math.NaN)
				ExpNegScaledInto(got, d, tau)
				mustSameBits(t, fmt.Sprintf("%s offset %d", ctx, off), got, want)
				got = offsetCopy(d, off)
				ExpNegScaledInto(got, got, tau)
				mustSameBits(t, fmt.Sprintf("%s offset %d in place", ctx, off), got, want)
			}
		}
		for _, tau := range []float64{1, 9.595855258721093, 0.37, 1e-300, 1e300, -2} {
			d := expArgs(tau)
			for shift := 0; shift < 4; shift++ {
				check(fmt.Sprintf("τ=%g edges shifted %d", tau, shift), append(make([]float64, shift), d...), tau)
			}
		}
		for _, n := range blockEdges {
			d := make([]float64, n)
			for i := range d {
				d[i] = float64(i) * 3.7
			}
			check(fmt.Sprintf("n=%d", n), d, 2)
		}

		rng := statutil.NewRNG(45, "exp")
		for name, span := range map[string][2]float64{
			"main path": {-0.5, 708}, // −d/τ ∈ (−707.5, 0.5]
			"underflow": {746, 1e4},  // −d/τ ∈ (−10746, −746]
		} {
			sweep := make([]float64, 1<<16)
			for i := range sweep {
				sweep[i] = span[0] + span[1]*rng.Float64()
			}
			check(name+" sweep", sweep, 1)
			if useAVX2 && haveVectorExp {
				out := make([]float64, len(sweep))
				if k := expNegScaledBlocks(out, sweep, 1); k != len(sweep) {
					t.Fatalf("the assembly stopped at element %d of the %s sweep", k, name)
				}
			}
		}
	})
}

// The references below are the eigensolver's loops as eigen.go had them
// inline before the kernels.

func rotateRef(lo, hi []float64, c, s float64) {
	for k, x := range lo {
		hk := hi[k]
		hi[k] = s*x + c*hk
		lo[k] = c*x - s*hk
	}
}

func subScaledRef(t, d []float64, g float64) {
	for k, dk := range d {
		t[k] -= g * dk
	}
}

func subRank2Ref(t, e, d []float64, f, g float64) {
	for k, x := range t {
		t[k] = x - (f*e[k] + g*d[k])
	}
}

// addScaledRef is TMul's inner loop as it was before addScaled.
func addScaledRef(y, x []float64, a float64) {
	for k, v := range x {
		y[k] += a * v
	}
}

func TestElementwiseKernelsMatchReference(t *testing.T) {
	onBothPaths(t, func(t *testing.T) {
		rng := statutil.NewRNG(43, "elementwise")
		for _, n := range append(append([]int(nil), blockEdges...), longRuns...) {
			for variant, draw := range map[string]func() float64{
				"normal":  rng.NormFloat64,
				"special": func() float64 { return special(rng) },
			} {
				for _, off := range []int{0, 1, 3} {
					ctx := fmt.Sprintf("n=%d offset %d %s", n, off, variant)
					a, b, c := offsetSlice(n, off, draw), offsetSlice(n, off, draw), offsetSlice(n, off, draw)
					f, g := draw(), draw()

					lo, hi := CloneVec(a), CloneVec(b)
					rotateRef(lo, hi, f, g)
					gotLo, gotHi := offsetCopy(a, off), offsetCopy(b, off)
					rotate(gotLo, gotHi, f, g)
					mustSameBits(t, ctx+" rotate lo", gotLo, lo)
					mustSameBits(t, ctx+" rotate hi", gotHi, hi)

					want := CloneVec(a)
					subScaledRef(want, b, g)
					got := offsetCopy(a, off)
					subScaled(got, b, g)
					mustSameBits(t, ctx+" subScaled", got, want)

					want = CloneVec(a)
					subRank2Ref(want, b, c, f, g)
					copy(got, a)
					subRank2(got, b, c, f, g)
					mustSameBits(t, ctx+" subRank2", got, want)

					want = CloneVec(a)
					addScaledRef(want, b, g)
					copy(got, a)
					addScaled(got, b, g)
					mustSameBits(t, ctx+" addScaled", got, want)
				}
			}
		}
	})
}

// TestRotateAdjacentRows rotates two neighbouring rows of one matrix, as
// tql2 does: the pair shares an allocation, the second row starts where the
// first ends, and nothing outside the two may change.
func TestRotateAdjacentRows(t *testing.T) {
	onBothPaths(t, func(t *testing.T) {
		rng := statutil.NewRNG(44, "rotate-rows")
		for _, n := range []int{1, 3, 4, 5, 17, 83, 801} {
			m := NewMatrix(4, n)
			for i := range m.Data {
				m.Data[i] = rng.NormFloat64()
			}
			want := m.Clone()
			rotateRef(want.Row(1), want.Row(2), 0.6, -0.8)
			rotate(m.Row(1), m.Row(2), 0.6, -0.8)
			mustSameBits(t, fmt.Sprintf("n=%d", n), m.Data, want.Data)
		}
	})
}

// TestSweepMatchesRotate holds sweep to rotateRef applied rotation by
// rotation, bottom row pair first, on strips of a wider matrix: widths
// across the 16-column block from both sides, runs of one rotation to a
// whole column, and nothing outside the strip may change.
func TestSweepMatchesRotate(t *testing.T) {
	onBothPaths(t, func(t *testing.T) {
		rng := statutil.NewRNG(45, "sweep")
		for _, w := range []int{1, 3, 4, 15, 16, 17, 32, 35} {
			for _, rots := range []int{1, 2, 7, 40} {
				for variant, draw := range map[string]func() float64{
					"normal":  rng.NormFloat64,
					"special": func() float64 { return special(rng) },
				} {
					ctx := fmt.Sprintf("width %d, %d rotations, %s", w, rots, variant)
					stride := w + 1 + rng.Intn(5)
					m := NewMatrix(rots+3, stride)
					for i := range m.Data {
						m.Data[i] = draw()
					}
					cs := offsetSlice(2*rots, 1, draw)
					col, row := rng.Intn(stride-w+1), 1
					want := m.Clone()
					for r := 0; r < rots; r++ {
						hi := want.Row(row + rots - r)[col : col+w]
						lo := want.Row(row + rots - r - 1)[col : col+w]
						rotateRef(lo, hi, cs[2*r], cs[2*r+1])
					}
					sweep(m.Data[row*stride+col:], stride, w, cs)
					mustSameBits(t, ctx, m.Data, want.Data)
				}
			}
		}
	})
}

// TestSubOuterMatchesReference holds subOuter to subScaledRef row by row on
// blocks of the width accumulate uses (16) and of others, which take the
// row-by-row path.
func TestSubOuterMatchesReference(t *testing.T) {
	onBothPaths(t, func(t *testing.T) {
		rng := statutil.NewRNG(46, "subouter")
		for _, w := range []int{0, 1, 4, 15, 16, 17} {
			for _, rows := range []int{0, 1, 5, 83} {
				for variant, draw := range map[string]func() float64{
					"normal":  rng.NormFloat64,
					"special": func() float64 { return special(rng) },
				} {
					ctx := fmt.Sprintf("%d×%d %s", rows, w, variant)
					b := offsetSlice(rows*w, 1, draw)
					g, d := offsetSlice(w, 3, draw), offsetSlice(rows, 1, draw)
					want := CloneVec(b)
					for k := 0; k < rows; k++ {
						subScaledRef(want[k*w:(k+1)*w], g, d[k])
					}
					subOuter(b, g, d)
					mustSameBits(t, ctx, b, want)
				}
			}
		}
	})
}

// symvRef is tred2's one-column matrix-vector loop run on the symvCols
// columns of a block, one after another, over the rows below the block.
func symvRef(t []float64, stride int, d, e []float64, f, g *[symvCols]float64) {
	for l := 0; l < symvCols; l++ {
		for k := range e {
			x := t[l*stride+k]
			g[l] += x * d[k]
			e[k] += x * f[l]
		}
	}
}

// TestSymvMatchesReference holds symv to symvRef: lengths across the
// four-entry blocks from both sides, rows of a wider matrix at an unaligned
// start, and nothing outside e and g may change.
func TestSymvMatchesReference(t *testing.T) {
	onBothPaths(t, func(t *testing.T) {
		rng := statutil.NewRNG(47, "symv")
		for _, n := range append(append([]int(nil), blockEdges...), longRuns...) {
			for variant, draw := range map[string]func() float64{
				"normal":  rng.NormFloat64,
				"special": func() float64 { return special(rng) },
			} {
				ctx := fmt.Sprintf("n=%d %s", n, variant)
				stride := n + 1 + rng.Intn(5)
				m := offsetSlice(symvCols*stride, 1, draw)
				d, e := offsetSlice(n, 3, draw), offsetSlice(n, 1, draw)
				var f, g [symvCols]float64
				for l := range f {
					f[l], g[l] = draw(), draw()
				}
				wantE, wantG := CloneVec(e), g
				symvRef(m, stride, d, wantE, &f, &wantG)
				before := CloneVec(m)
				symv(m, stride, d, e, &f, &g)
				mustSameBits(t, ctx+" e", e, wantE)
				mustSameBits(t, ctx+" g", g[:], wantG[:])
				mustSameBits(t, ctx+" block", m, before)
			}
		}
	})
}

// tmulRef is TMul as it was before addScaled: each output element sums its
// terms for k ascending from +0, skipping exact-zero m[k][i].
func tmulRef(m, b *Matrix) *Matrix {
	out := NewMatrix(m.Cols, b.Cols)
	for k := 0; k < m.Rows; k++ {
		for i, a := range m.Row(k) {
			if a == 0 {
				continue
			}
			for j, x := range b.Row(k) {
				out.Data[i*b.Cols+j] += a * x
			}
		}
	}
	return out
}

// TestTMulMatchesReference: TMul is tmulRef bit for bit, exact zeros (of both
// signs) over infinite entries and the daemon's 800×80 shape included.
func TestTMulMatchesReference(t *testing.T) {
	onBothPaths(t, func(t *testing.T) {
		rng := statutil.NewRNG(47, "tmul")
		for _, shape := range [][3]int{{0, 3, 4}, {5, 0, 3}, {7, 3, 0}, {9, 5, 17}, {40, 17, 35}, {800, 80, 80}} {
			for variant, draw := range map[string]func() float64{
				"normal":  rng.NormFloat64,
				"special": func() float64 { return special(rng) },
			} {
				m := NewMatrixFrom(shape[0], shape[1], offsetSlice(shape[0]*shape[1], 1, draw))
				b := NewMatrixFrom(shape[0], shape[2], offsetSlice(shape[0]*shape[2], 3, draw))
				if len(m.Data) > 0 && len(b.Data) > 0 {
					m.Data[0], m.Data[len(m.Data)-1] = 0, math.Copysign(0, -1)
					b.Data[0], b.Data[len(b.Data)-1] = math.Inf(1), math.NaN()
				}
				ctx := fmt.Sprintf("%dx%d ᵀ* %dx%d %s", shape[0], shape[1], shape[0], shape[2], variant)
				mustSameBits(t, ctx, m.TMul(b).Data, tmulRef(m, b).Data)
			}
		}
	})
}

// TestKernelsRejectBadShapes: the wrappers are what stands between a caller's
// mistake and assembly that checks nothing.
func TestKernelsRejectBadShapes(t *testing.T) {
	onBothPaths(t, func(t *testing.T) {
		m := NewMatrix(5, 32)
		short := &Matrix{Rows: 5, Cols: 32, Data: make([]float64, 5*32-1)}
		for name, call := range map[string]func(){
			"TMulVecInto input":   func() { m.TMulVecInto(make([]float64, 32), make([]float64, 4)) },
			"TMulVecInto output":  func() { m.TMulVecInto(make([]float64, 31), make([]float64, 5)) },
			"TMulVecInto storage": func() { short.TMulVecInto(make([]float64, 32), make([]float64, 5)) },
			"SqDistCols query":    func() { SqDistCols(make([]float64, 32), m, make([]float64, 4)) },
			"SqDistCols output":   func() { SqDistCols(make([]float64, 33), m, make([]float64, 5)) },
			"SqDistCols storage":  func() { SqDistCols(make([]float64, 32), short, make([]float64, 5)) },
			"ExpNegScaledInto":    func() { ExpNegScaledInto(make([]float64, 8), make([]float64, 9), 1) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s mismatch did not panic", name)
					}
				}()
				call()
			}()
		}
	})
}

// TestKernelsEmptyOperands: zero rows or columns are answered without
// touching a first element that is not there.
func TestKernelsEmptyOperands(t *testing.T) {
	onBothPaths(t, func(t *testing.T) {
		out := nans(40)
		NewMatrix(0, 40).TMulVecInto(out, nil)
		mustSameBits(t, "TMulVecInto over no rows", out, make([]float64, 40))
		NewMatrix(40, 0).TMulVecInto(nil, make([]float64, 40))

		out = nans(40)
		SqDistCols(out, NewMatrix(0, 40), nil)
		mustSameBits(t, "SqDistCols over no features", out, make([]float64, 40))
		SqDistCols(nil, NewMatrix(40, 0), make([]float64, 40))
		ExpNegScaledInto(nil, nil, 1)

		rotate(nil, nil, 1, 0)
		subScaled(nil, nil, 1)
		subRank2(nil, nil, nil, 1, 1)
		addScaled(nil, nil, 1)
		subOuter(nil, make([]float64, 16), nil)
		sweep(nil, 16, 16, nil)
		sweep(make([]float64, 16), 16, 0, []float64{1, 0})
	})
}

// TestVectorKernelsGauge: the gauges an operator reads follow the switch, and
// the switch cannot turn on what the processor lacks.
func TestVectorKernelsGauge(t *testing.T) {
	defer SetVectorKernels(SetVectorKernels(false))
	if VectorKernels() || avx2Gauge.Value() != 0 || VectorExp() || expGauge.Value() != 0 {
		t.Fatalf("switched off: VectorKernels %v, gauge %d; VectorExp %v, gauge %d", VectorKernels(), avx2Gauge.Value(), VectorExp(), expGauge.Value())
	}
	SetVectorKernels(true)
	if VectorKernels() != haveAVX2 || (avx2Gauge.Value() == 1) != haveAVX2 {
		t.Fatalf("switched on with haveAVX2 = %v: VectorKernels %v, gauge %d", haveAVX2, VectorKernels(), avx2Gauge.Value())
	}
	if exp := haveAVX2 && haveVectorExp; VectorExp() != exp || (expGauge.Value() == 1) != exp {
		t.Fatalf("switched on with haveAVX2 = %v, haveVectorExp = %v: VectorExp %v, gauge %d", haveAVX2, haveVectorExp, VectorExp(), expGauge.Value())
	}
}

// BenchmarkBasisProduct is the basis product at the daemon's shape (800
// training rows onto 80 kernel-PCA components): TMulVec's axpy against the
// register-held sums, portable and AVX2.
func BenchmarkBasisProduct(b *testing.B) {
	rng := statutil.NewRNG(33, "basis-bench")
	m := NewMatrix(800, 80)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	v, out := make([]float64, m.Rows), make([]float64, m.Cols)
	for j := range v {
		v[j] = rng.NormFloat64()
	}
	b.Run("TMulVec", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.TMulVec(v)
		}
	})
	onBothPaths(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.TMulVecInto(out, v)
		}
	})
}

// BenchmarkCrossDistances is the cross-kernel's distance half at the daemon's
// shape (800 training rows × 24 plan features): SqDist4 over the row-major
// points against SqDistCols over the feature-major copy, portable and AVX2.
func BenchmarkCrossDistances(b *testing.B) {
	rng := statutil.NewRNG(34, "dist-bench")
	x := NewMatrix(800, 24)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	q, out := make([]float64, x.Cols), make([]float64, x.Rows)
	for j := range q {
		q[j] = rng.NormFloat64()
	}
	b.Run("SqDist4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for r := 0; r < x.Rows; r += 4 {
				out[r], out[r+1], out[r+2], out[r+3], _ = SqDist4(x.Row(r), x.Row(r+1), x.Row(r+2), x.Row(r+3), q, math.Inf(1))
			}
		}
	})
	xT := x.T()
	onBothPaths(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			SqDistCols(out, xT, q)
		}
	})
}

// BenchmarkExpNegScaled is the cross-kernel's exponential half at the
// daemon's shape: 800 squared distances over the stock τ (ScaleHeuristic's
// τ for the stock 800 training plans), spread over the arguments
// −d/τ ∈ (−200, 0] the stock queries produce.
func BenchmarkExpNegScaled(b *testing.B) {
	const tau = 9.595855258721093
	rng := statutil.NewRNG(37, "exp-bench")
	d, out := make([]float64, 800), make([]float64, 800)
	for i := range d {
		d[i] = 200 * tau * rng.Float64()
	}
	onBothPaths(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ExpNegScaledInto(out, d, tau)
		}
	})
}

// BenchmarkSweep is one QL sweep over the whole 800-row column of a
// 16-column strip — the unit of work tql2's flush hands to sweep — per
// rotation (ns/rot): the AVX2 form carries a row in registers, the portable
// one is rotate per rotation.
func BenchmarkSweep(b *testing.B) {
	rng := statutil.NewRNG(36, "sweep-bench")
	const n = 800
	m := NewMatrix(n, n)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	cs := make([]float64, 2*(n-1))
	for r := 0; r < n-1; r++ {
		cs[2*r], cs[2*r+1] = 0.6, 0.8
	}
	onBothPaths(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sweep(m.Data, n, 16, cs)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*(n-1)), "ns/rot")
	})
}

// BenchmarkRotate is one Givens rotation of two 800-element rows.
func BenchmarkRotate(b *testing.B) {
	rng := statutil.NewRNG(35, "rotate-bench")
	lo, hi := make([]float64, 800), make([]float64, 800)
	for i := range lo {
		lo[i], hi[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	onBothPaths(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rotate(lo, hi, 0.6, 0.8)
		}
	})
}
