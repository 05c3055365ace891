package cca

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

// plantedViews builds two datasets sharing one strong latent factor.
func plantedViews(seed int64, n int) (*linalg.Matrix, *linalg.Matrix) {
	rng := rand.New(rand.NewSource(seed))
	x := linalg.NewMatrix(n, 3)
	y := linalg.NewMatrix(n, 2)
	for i := 0; i < n; i++ {
		z := rng.NormFloat64() // shared latent factor
		x.Set(i, 0, z+0.1*rng.NormFloat64())
		x.Set(i, 1, rng.NormFloat64())
		x.Set(i, 2, -z+0.1*rng.NormFloat64())
		y.Set(i, 0, 2*z+0.1*rng.NormFloat64())
		y.Set(i, 1, rng.NormFloat64())
	}
	return x, y
}

func pearson(a, b []float64) float64 {
	ma, mb := linalg.Mean(a), linalg.Mean(b)
	var sab, sa, sb float64
	for i := range a {
		da, db := a[i]-ma, b[i]-mb
		sab += da * db
		sa += da * da
		sb += db * db
	}
	if sa == 0 || sb == 0 {
		return 0
	}
	return sab / math.Sqrt(sa*sb)
}

func TestFitFindsPlantedCorrelation(t *testing.T) {
	x, y := plantedViews(1, 300)
	m, err := Fit(x, y, 2, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if m.Correlations[0] < 0.95 {
		t.Errorf("top canonical correlation = %v, want > 0.95", m.Correlations[0])
	}
	// The x projection must carry the factor y's first column measures.
	px := m.ProjectAllX(x)
	if c := math.Abs(pearson(px.Col(0), y.Col(0))); c < 0.95 {
		t.Errorf("projection correlation = %v, want > 0.95", c)
	}
	// Second pair has no shared structure.
	if m.Correlations[1] > 0.5 {
		t.Errorf("second correlation = %v, want small", m.Correlations[1])
	}
}

func TestCorrelationsSortedAndBounded(t *testing.T) {
	x, y := plantedViews(2, 150)
	m, err := Fit(x, y, 0, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range m.Correlations {
		if c < 0 || c > 1 {
			t.Errorf("correlation %d = %v out of [0,1]", i, c)
		}
		if i > 0 && c > m.Correlations[i-1]+1e-9 {
			t.Errorf("correlations not descending: %v", m.Correlations)
		}
	}
}

// TestProjectSingleMatchesBatch holds ProjectAllX to ProjectX row by row,
// bit for bit, at a canonical dimension that crosses the 16-column blocks TMulVecInto takes on AVX2 (the suite runs again on the
// portable loops). One row is the fitted mean itself, so its centered copy is
// all exact zeros — terms both forms skip — and another has a few.
func TestProjectSingleMatchesBatch(t *testing.T) {
	for _, tc := range []struct{ n, dx, dy, r int }{{80, 3, 2, 2}, {120, 37, 21, 20}} {
		x, y := randViews(int64(tc.n), tc.n, tc.dx, tc.dy)
		m, err := Fit(x, y, tc.r, 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		copy(x.Row(0), m.MeanX)
		x.Set(1, 0, m.MeanX[0])
		px := m.ProjectAllX(x)
		for i := 0; i < tc.n; i++ {
			sx := m.ProjectX(x.Row(i))
			for j := range sx {
				if math.Float64bits(sx[j]) != math.Float64bits(px.At(i, j)) {
					t.Fatalf("%+v: X projection (%d,%d) = %v, ProjectX %v", tc, i, j, px.At(i, j), sx[j])
				}
			}
		}
	}
}

// randViews draws two views of n rows whose first columns share a signal.
func randViews(seed int64, n, dx, dy int) (*linalg.Matrix, *linalg.Matrix) {
	rng := rand.New(rand.NewSource(seed))
	x, y := linalg.NewMatrix(n, dx), linalg.NewMatrix(n, dy)
	for i := 0; i < n; i++ {
		z := rng.NormFloat64()
		for j := range x.Row(i) {
			x.Set(i, j, z*float64(j%3)+rng.NormFloat64())
		}
		for j := range y.Row(i) {
			y.Set(i, j, z*float64(j%2)+rng.NormFloat64())
		}
	}
	return x, y
}

func TestUncorrelatedDataHasLowCorrelations(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 400
	x := linalg.NewMatrix(n, 3)
	y := linalg.NewMatrix(n, 3)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	for i := range y.Data {
		y.Data[i] = rng.NormFloat64()
	}
	m, err := Fit(x, y, 0, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if m.Correlations[0] > 0.4 {
		t.Errorf("independent data should have low canonical correlation, got %v", m.Correlations[0])
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(linalg.NewMatrix(5, 2), linalg.NewMatrix(6, 2), 1, 1e-3); err == nil {
		t.Error("row mismatch accepted")
	}
	if _, err := Fit(linalg.NewMatrix(2, 2), linalg.NewMatrix(2, 2), 1, 1e-3); err == nil {
		t.Error("too few rows accepted")
	}
}

// TestWhitenKeepsFitDistances: where Fit keeps every canonical dimension of
// x (x no wider than y), Whiten projects every pair of rows the same
// distance apart as Fit does.
func TestWhitenKeepsFitDistances(t *testing.T) {
	x, y := randViews(5, 200, 4, 6)
	fit, err := Fit(x, y, 0, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	w, err := Whiten(x, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	pf, pw := fit.ProjectAllX(x), w.ProjectAllX(x)
	for a := 0; a < 20; a++ {
		for b := a + 1; b < 20; b++ {
			df, dw := linalg.Dist(pf.Row(a), pf.Row(b)), linalg.Dist(pw.Row(a), pw.Row(b))
			if math.Abs(df-dw) > 1e-12*df {
				t.Fatalf("rows %d, %d: %v apart under Whiten, %v under Fit", a, b, dw, df)
			}
		}
	}
	if _, err := Whiten(linalg.NewMatrix(2, 2), 1e-3); err == nil {
		t.Error("too few rows accepted")
	}
}
