package linalg

import (
	"math"
	"testing"

	"repro/internal/statutil"
)

// The predict-path kernels are licensed by bit identity with the loops they
// replace: SqDist4 with Dist here, TMulVecInto with TMulVec and SqDistCols
// with Dist in kernels_test.go. These tests compare bit patterns, so −0 ≠ +0
// and NaN = NaN.

func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// awkward returns a value drawn from the magnitudes and specials that make
// summation order and skipped terms visible.
func awkward(rng *statutil.RNG) float64 {
	switch rng.Intn(12) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return rng.NormFloat64() * 1e150
	case 3:
		return rng.NormFloat64() * 1e-160 // squares are subnormal or zero
	case 4:
		return rng.NormFloat64() * 1e-320 // itself subnormal
	default:
		return rng.NormFloat64()
	}
}

func TestSqDist4MatchesDist(t *testing.T) {
	rng := statutil.NewRNG(31, "sqdist4")
	for trial := 0; trial < 400; trial++ {
		dim := rng.Intn(70) // crosses 0, 16, 32, 48 and 64
		vecs := make([][]float64, 5)
		for i := range vecs {
			vecs[i] = make([]float64, dim)
			for j := range vecs[i] {
				vecs[i][j] = awkward(rng)
			}
		}
		if dim > 0 {
			switch trial % 9 {
			case 1:
				vecs[rng.Intn(5)][rng.Intn(dim)] = math.NaN()
			case 2:
				vecs[rng.Intn(5)][rng.Intn(dim)] = math.Inf(1)
			case 3:
				vecs[rng.Intn(4)][rng.Intn(dim)] = 1e200 // the square overflows
			}
		}
		p, q := vecs[:4], vecs[4]
		s0, s1, s2, s3, ok := SqDist4(p[0], p[1], p[2], p[3], q, math.Inf(1))
		if !ok {
			t.Fatalf("trial %d: stopped early under an infinite limit", trial)
		}
		for k, s := range []float64{s0, s1, s2, s3} {
			if want := Dist(p[k], q); !sameBits(math.Sqrt(s), want) {
				t.Fatalf("trial %d dim %d: sqrt(sum %d) = %v, Dist = %v", trial, dim, k, math.Sqrt(s), want)
			}
		}
	}
}

// TestSqDist4Limit pins the early stop: it needs all four partial sums past
// the limit at a stride boundary, reports partial sums that are lower bounds
// of the full ones, and never fires on a NaN sum or an infinite limit.
func TestSqDist4Limit(t *testing.T) {
	const dim = 40
	far, near, q := make([]float64, dim), make([]float64, dim), make([]float64, dim)
	for j := range far {
		far[j] = 10
	}
	full := 100.0 * dim
	if s0, _, _, _, ok := SqDist4(far, far, far, far, q, 500); ok || s0 >= full || s0 <= 500 {
		t.Fatalf("four far points under limit 500: ok=%v partial=%v (full %v)", ok, s0, full)
	}
	// One near point keeps the whole group alive to the last term.
	if s0, _, _, s3, ok := SqDist4(far, far, far, near, q, 500); !ok || s0 != full || s3 != 0 {
		t.Fatalf("group with a near point: ok=%v sums %v, %v", ok, s0, s3)
	}
	// A limit the sums pass only in the last stride still reports it.
	if _, _, _, _, ok := SqDist4(far, far, far, far, q, full-1); ok {
		t.Fatal("sums past the limit at the final check were reported as within it")
	}
	nan := append([]float64(nil), far...)
	nan[0] = math.NaN()
	if _, s1, _, _, ok := SqDist4(far, nan, far, far, q, 500); !ok || !math.IsNaN(s1) {
		t.Fatalf("a NaN partial sum must hold the group: ok=%v sum=%v", ok, s1)
	}
	huge := append([]float64(nil), far...)
	huge[3] = 1e200
	if s0, _, _, _, ok := SqDist4(huge, huge, huge, huge, q, 500); ok || !math.IsInf(s0, 1) {
		t.Fatalf("overflowed sums pass any finite limit: ok=%v sum=%v", ok, s0)
	}
	if _, _, _, _, ok := SqDist4(huge, huge, huge, huge, q, math.Inf(1)); !ok {
		t.Fatal("nothing exceeds an infinite limit")
	}
}
