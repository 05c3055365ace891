package kcca

import (
	"reflect"
	"testing"

	"repro/internal/kernels"
	"repro/internal/linalg"
	"repro/internal/parallel"
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
// decided by rounding alone. Train must still pick the same ones at every
// worker count.
func TestTrainFlatSpectrum(t *testing.T) {
	x, y := trainViews(11, 240, 20, 1e-6)
	opt := DefaultOptions()
	opt.Rank = 3
	defer parallel.SetMaxProcs(parallel.SetMaxProcs(1))
	want, err := Train(x, y, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 2, 7} {
		parallel.SetMaxProcs(w)
		got, err := Train(x, y, opt)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: Train on a flat spectrum differs from the serial one", w)
		}
	}
}

// TestScales: Train's kernel scale for each view is the heuristic at that
// view's fraction (0.1 and 0.2 when unset), independent of the other view.
func TestScales(t *testing.T) {
	x, y := trainViews(3, 60, 10, 0.05)
	hx, hy := kernels.ScaleHeuristic(x, 0.1), kernels.ScaleHeuristic(y, 0.2)
	ox, oy := kernels.ScaleHeuristic(x, 3), kernels.ScaleHeuristic(y, 0.5)
	for _, tc := range []struct {
		name         string
		opt          Options
		wantX, wantY float64
	}{
		{name: "heuristic", opt: DefaultOptions(), wantX: hx, wantY: hy},
		{name: "default fractions", opt: Options{}, wantX: hx, wantY: hy},
		{name: "own x fraction", opt: Options{TauFracX: 3}, wantX: ox, wantY: hy},
		{name: "own y fraction", opt: Options{TauFracY: 0.5}, wantX: hx, wantY: oy},
		{name: "own fractions", opt: Options{TauFracX: 3, TauFracY: 0.5}, wantX: ox, wantY: oy},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := Train(x, y, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			if m.TauX != tc.wantX || m.TauY != tc.wantY {
				t.Fatalf("Train used (%v, %v), want (%v, %v)", m.TauX, m.TauY, tc.wantX, tc.wantY)
			}
		})
	}
}
