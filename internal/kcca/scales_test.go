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

// TestTrainAtPinnedScalesBitIdentical: the sliding predictor freezes the
// scales Scales picks and trains at them pinned, so Train at pinned
// Scales(x, y) must be Train at the heuristic, bit for bit, at the automatic
// rank and at an explicit rank far below the window size.
func TestTrainAtPinnedScalesBitIdentical(t *testing.T) {
	for _, sh := range []struct {
		name      string
		n, rank   int
		templates int
	}{
		{name: "auto-rank", n: 160, templates: 20},
		{name: "fixed-rank", n: 240, rank: 3, templates: 20},
	} {
		t.Run(sh.name, func(t *testing.T) {
			x, y := trainViews(int64(sh.n), sh.n, sh.templates, 0.05)
			opt := DefaultOptions()
			opt.Rank = sh.rank
			want, err := Train(x, y, opt)
			if err != nil {
				t.Fatal(err)
			}
			pinned := opt
			pinned.TauX, pinned.TauY = Scales(x, y, opt)
			if want.TauX != pinned.TauX || want.TauY != pinned.TauY {
				t.Fatalf("Train used (%v, %v), Scales says (%v, %v)", want.TauX, want.TauY, pinned.TauX, pinned.TauY)
			}
			got, err := Train(x, y, pinned)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatal("Train at the pinned heuristic scales differs from Train at the heuristic")
			}
		})
	}
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

// TestScales: each view's scale is its pinned value where positive and the
// heuristic at its fraction (0.1 and 0.2 when unset) otherwise, independent
// of the other view.
func TestScales(t *testing.T) {
	x, y := trainViews(3, 60, 10, 0.05)
	hx, hy := kernels.ScaleHeuristic(x, 0.1), kernels.ScaleHeuristic(y, 0.2)
	for _, tc := range []struct {
		name         string
		opt          Options
		wantX, wantY float64
	}{
		{name: "heuristic", opt: DefaultOptions(), wantX: hx, wantY: hy},
		{name: "default fractions", opt: Options{}, wantX: hx, wantY: hy},
		{name: "pinned x", opt: Options{TauX: 4}, wantX: 4, wantY: hy},
		{name: "pinned y", opt: Options{TauY: 0.5}, wantX: hx, wantY: 0.5},
		{
			name:  "pinned both",
			opt:   Options{TauFracX: 3, TauFracY: 3, TauX: 4, TauY: 0.5},
			wantX: 4, wantY: 0.5,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if gx, gy := Scales(x, y, tc.opt); gx != tc.wantX || gy != tc.wantY {
				t.Fatalf("Scales = (%v, %v), want (%v, %v)", gx, gy, tc.wantX, tc.wantY)
			}
		})
	}
}

// TestTrainIgnoresTauDriftTol: the drift tolerance is the sliding
// predictor's policy, not a training input.
func TestTrainIgnoresTauDriftTol(t *testing.T) {
	x, y := trainViews(5, 80, 12, 0.05)
	opt := DefaultOptions()
	want, err := Train(x, y, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, tol := range []float64{1e-9, 0.5} {
		o := opt
		o.TauDriftTol = tol
		got, err := Train(x, y, o)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("TauDriftTol %v changed the trained model", tol)
		}
	}
}
