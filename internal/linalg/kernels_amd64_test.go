package linalg

import (
	"math"
	"os"
	"strings"
	"testing"
)

// archExpBranch is math.archExp (src/math/exp_amd64.s) in Go, on its main
// path: with fused, its FMA branch; without, its SSE branch, every product
// rounded before the add (the float64 conversions forbid fusing).
func archExpBranch(x float64, fused bool) float64 {
	const (
		log2e = 1.4426950408889634073599246810018920
		ln2U  = 0.69314718055966295651160180568695068359375
		ln2L  = 0.28235290563031577122588448175013436025525412068e-12
	)
	taylor := [...]float64{
		2.4801587301587301587e-5, 1.9841269841269841270e-4, 1.3888888888888888889e-3,
		8.3333333333333333333e-3, 4.1666666666666666667e-2, 1.6666666666666666667e-1, 0.5, 1.0,
	}
	k := math.RoundToEven(float64(log2e * x))
	if fused {
		x = math.FMA(-k, ln2U, x)
		x = math.FMA(-k, ln2L, x)
	} else {
		x -= float64(ln2U * k)
		x -= float64(ln2L * k)
	}
	x *= 0.0625
	p := taylor[0]
	for _, c := range taylor[1:] {
		if fused {
			p = math.FMA(x, p, c)
		} else {
			p = float64(p*x) + c
		}
	}
	x *= p
	for i := 0; i < 3; i++ {
		x *= x + 2
	}
	if fused {
		x = math.FMA(x+2, x, 1)
	} else {
		x = float64(x*(x+2)) + 1
	}
	return x * math.Float64frombits(uint64(int64(k)+1023)<<52)
}

// TestExpProbeSeparatesBranches: every probe argument tells math.Exp's two
// amd64 branches apart, so a kernel that agrees with math.Exp on all of them
// agrees with the branch it mirrors.
func TestExpProbeSeparatesBranches(t *testing.T) {
	for _, d := range expProbe {
		if fma, sse := archExpBranch(-d, true), archExpBranch(-d, false); fma == sse {
			t.Errorf("exp(−%v): both branches give %#x", d, math.Float64bits(fma))
		}
	}
}

// TestExpKernelServes: on a host with AVX2 and FMA, and no GODEBUG setting
// that changes which branch math.Exp takes, the lane-wise exponential
// serves. It fails when the toolchain's math.Exp stops agreeing with the
// kernel, rather than the kernel silently switching off.
func TestExpKernelServes(t *testing.T) {
	if strings.Contains(os.Getenv("GODEBUG"), "cpu.") {
		t.Skip("GODEBUG sets processor features")
	}
	if haveAVX2 && fmaBit() && !haveVectorExp {
		t.Fatal("the processor has AVX2 and FMA, but the lane-wise exponential disagrees with math.Exp on the probe")
	}
	for _, d := range expProbe {
		if fused := archExpBranch(-d, fmaBit()); fused != math.Exp(-d) {
			t.Fatalf("math.Exp(−%v) = %#x is not math.archExp's branch for this processor (%#x)", d, math.Float64bits(math.Exp(-d)), math.Float64bits(fused))
		}
	}
}
