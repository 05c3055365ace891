package kcca

import (
	"math"
	"testing"

	"repro/internal/kernels"
	"repro/internal/linalg"
	"repro/internal/statutil"
)

// trainViews draws n template-clustered rows with the given template count
// and jitter.
func trainViews(seed int64, n, templates int, jitter float64) (x, y *linalg.Matrix) {
	g := newTmplGen(statutil.NewRNG(seed, "train-scales"), 8, 4, templates, jitter)
	x, y = linalg.NewMatrix(n, g.d), linalg.NewMatrix(n, g.e)
	for i := 0; i < n; i++ {
		xr, yr := g.pair()
		copy(x.Row(i), xr)
		copy(y.Row(i), yr)
	}
	return x, y
}

// TestTrainFlatSpectrum is the degenerate-spectrum case: twenty equally
// weighted templates with almost no jitter at rank 3 put the rank cut inside
// a plateau of equal eigenvalues, where which eigenvectors are kept is
// decided by rounding alone. Train must still keep the ones the two-view
// fit keeps on its query side, bit for bit, and project every training row
// the same distance from every other.
func TestTrainFlatSpectrum(t *testing.T) {
	x, y := trainViews(11, 240, 20, 1e-6)
	opt := DefaultOptions()
	opt.Rank = 3
	one, err := Train(x, opt)
	if err != nil {
		t.Fatal(err)
	}
	two, rx, ry, err := trainTwoView(x, y, opt, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if rx != 3 || ry != 3 {
		t.Fatalf("kernel-PCA ranks %d and %d, want 3", rx, ry)
	}
	sameQuerySide(t, one, two)
	for a := 0; a < x.Rows; a += 7 {
		for b := a + 1; b < x.Rows; b += 5 {
			d1 := linalg.Dist(one.QueryProj.Row(a), one.QueryProj.Row(b))
			d2 := linalg.Dist(two.QueryProj.Row(a), two.QueryProj.Row(b))
			if math.Abs(d1-d2) > 1e-9*(1+d2) {
				t.Fatalf("rows %d, %d: %v apart, %v in the two-view fit", a, b, d1, d2)
			}
		}
	}
}

// TestScales: Train's kernel scale is the heuristic at the query fraction
// (0.1 when unset).
func TestScales(t *testing.T) {
	x, _ := trainViews(3, 60, 10, 0.05)
	for _, tc := range []struct {
		name string
		opt  Options
		want float64
	}{
		{name: "heuristic", opt: DefaultOptions(), want: kernels.ScaleHeuristic(x, 0.1)},
		{name: "default fraction", opt: Options{}, want: kernels.ScaleHeuristic(x, 0.1)},
		{name: "own fraction", opt: Options{TauFracX: 3}, want: kernels.ScaleHeuristic(x, 3)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := Train(x, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			if m.TauX != tc.want {
				t.Fatalf("Train used %v, want %v", m.TauX, tc.want)
			}
		})
	}
}
