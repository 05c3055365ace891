package linalg

import "math"

// haveAVX2 is the processor and operating-system check, made once: the AVX
// and AVX2 feature bits, and — because the 256-bit registers are only usable
// if the kernel saves them across context switches — OSXSAVE with the XMM
// and YMM state bits of XCR0 both set.
var haveAVX2 = func() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&osxsave == 0 || c&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, b, _, _ := cpuid(7, 0)
	return b&avx2 != 0
}()

// haveVectorExp says whether expNegScaledAVX2 may serve: the AVX2 kernels
// can, the processor has FMA — with AVX, the test under which math.Exp takes
// the FMA branch of its assembly, the one the kernel runs four lanes wide —
// and the kernel agrees with math.Exp on expProbe. The last part keeps the
// kernel off where math.Exp takes its other branch after all
// (GODEBUG=cpu.fma=off or cpu.avx=off) or is no longer the routine the
// kernel mirrors (another toolchain's math.Exp).
var haveVectorExp = haveAVX2 && fmaBit() && expMatchesProbe()

// expProbe holds d values whose math.Exp(−d) the FMA and SSE branches of
// math.Exp's assembly round differently (TestExpProbeSeparatesBranches).
var expProbe = [...]float64{13.5, 17, 20.5, 23.5, 29.5, 31, 37.5, 46}

func fmaBit() bool {
	const fma = 1 << 12
	_, _, c, _ := cpuid(1, 0)
	return c&fma != 0
}

func expMatchesProbe() bool {
	var out [len(expProbe)]float64
	if expNegScaledAVX2(&out[0], &expProbe[0], len(expProbe), 1) != len(expProbe) {
		return false
	}
	for i, d := range expProbe {
		if out[i] != math.Exp(-d) {
			return false
		}
	}
	return true
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// The assembly routines take only whole blocks and check nothing: every
// pointer and count below comes from a wrapper in kernels.go that has
// validated the shapes, and from a slice known to be non-empty.

// tmulvecAVX2 computes out[j] = Σᵢ v[i]·m[i·stride+j] for j < cols, cols a
// multiple of 16, skipping exact-zero v[i].
//
//go:noescape
func tmulvecAVX2(out, m, v *float64, rows, stride, cols int)

// sqDistColsAVX2 computes out[i] = Σⱼ (t[j·stride+i]−q[j])² for i < cols,
// cols a multiple of 16.
//
//go:noescape
func sqDistColsAVX2(out, t, q *float64, rows, stride, cols int)

// rotateAVX2, subScaledAVX2 and subRank2AVX2 are rotate, subScaled and
// subRank2 on n elements, n a multiple of 4.
//
//go:noescape
func rotateAVX2(lo, hi *float64, n int, c, s float64)

//go:noescape
func subScaledAVX2(t, d *float64, n int, a float64)

//go:noescape
func subRank2AVX2(t, e, d *float64, n int, a, b float64)

// sweepAVX2 is sweep on 16 columns: rots rotations over rows 0..rots of the
// strip at v, stride elements apart.
//
//go:noescape
func sweepAVX2(v *float64, stride int, cs *float64, rots int)

// subOuterAVX2 is subOuter on a rows × 16 block.
//
//go:noescape
func subOuterAVX2(b, gv, d *float64, rows int)

// addScaledAVX2 is addScaled on n elements, n a multiple of 4.
//
//go:noescape
func addScaledAVX2(y, x *float64, n int, a float64)

// expNegScaledAVX2 is ExpNegScaledInto on n elements, n a multiple of 4, up
// to the first group of four that math.Exp does not take through its main
// path or its underflow to +0; it returns how many elements it wrote.
//
//go:noescape
func expNegScaledAVX2(out, d *float64, n int, tau float64) (done int)

// symvAVX2 is symv on n entries, n a multiple of 4, with acc for g; fb
// holds f with each entry repeated four times.
//
//go:noescape
func symvAVX2(t *float64, stride int, d, e *float64, n int, fb, acc *float64)

// The …Blocks functions run the assembly over the leading whole blocks of
// their operands and return how many columns or elements that covered (zero
// when the portable loops serve).

func tmulvecBlocks(out []float64, m *Matrix, v []float64) int {
	cols := m.Cols &^ 15
	if !useAVX2 || cols == 0 || m.Rows == 0 {
		return 0
	}
	tmulvecAVX2(&out[0], &m.Data[0], &v[0], m.Rows, m.Cols, cols)
	return cols
}

func sqDistColsBlocks(out []float64, t *Matrix, q []float64) int {
	cols := t.Cols &^ 15
	if !useAVX2 || cols == 0 || t.Rows == 0 {
		return 0
	}
	sqDistColsAVX2(&out[0], &t.Data[0], &q[0], t.Rows, t.Cols, cols)
	return cols
}

func rotateBlocks(lo, hi []float64, c, s float64) int {
	n := len(lo) &^ 3
	if !useAVX2 || n == 0 {
		return 0
	}
	rotateAVX2(&lo[0], &hi[0], n, c, s)
	return n
}

func subScaledBlocks(t, d []float64, g float64) int {
	n := len(t) &^ 3
	if !useAVX2 || n == 0 {
		return 0
	}
	subScaledAVX2(&t[0], &d[0], n, g)
	return n
}

func subRank2Blocks(t, e, d []float64, f, g float64) int {
	n := len(t) &^ 3
	if !useAVX2 || n == 0 {
		return 0
	}
	subRank2AVX2(&t[0], &e[0], &d[0], n, f, g)
	return n
}

func sweepBlocks(v []float64, stride, w int, cs []float64) int {
	if !useAVX2 {
		return 0
	}
	k := 0
	for ; k+16 <= w; k += 16 {
		sweepAVX2(&v[k], stride, &cs[0], len(cs)/2)
	}
	return k
}

// subOuterBlocks returns the rows it covered: all of them for a 16-column
// block, none otherwise.
func subOuterBlocks(b, g, d []float64) int {
	if !useAVX2 || len(g) != 16 || len(d) == 0 {
		return 0
	}
	subOuterAVX2(&b[0], &g[0], &d[0], len(d))
	return len(d)
}

func addScaledBlocks(y, x []float64, a float64) int {
	n := len(y) &^ 3
	if !useAVX2 || n == 0 {
		return 0
	}
	addScaledAVX2(&y[0], &x[0], n, a)
	return n
}

// expNegScaledBlocks stops short of len(out)&^3 at a group the assembly
// leaves to math.Exp.
func expNegScaledBlocks(out, d []float64, tau float64) int {
	n := len(out) &^ 3
	if !useAVX2 || !haveVectorExp || n == 0 {
		return 0
	}
	return expNegScaledAVX2(&out[0], &d[0], n, tau)
}

func symvBlocks(t []float64, stride int, d, e []float64, f, g *[symvCols]float64) int {
	n := len(e) &^ 3
	if !useAVX2 || n == 0 {
		return 0
	}
	var fb [4 * symvCols]float64
	for l, x := range f {
		fb[4*l], fb[4*l+1], fb[4*l+2], fb[4*l+3] = x, x, x, x
	}
	symvAVX2(&t[0], stride, &d[0], &e[0], n, &fb[0], &g[0])
	return n
}
