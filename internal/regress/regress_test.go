package regress

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

func TestFitRecoversPlantedLinearModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n, p := 100, 4
	x := linalg.NewMatrix(n, p)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	true_ := []float64{3, -2, 0.5, 7}
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		y[i] = 1.5 + linalg.Dot(true_, x.Row(i))
	}
	m, err := Fit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Intercept-1.5) > 1e-8 {
		t.Errorf("intercept = %v, want 1.5", m.Intercept)
	}
	for i, c := range true_ {
		if math.Abs(m.Coef[i]-c) > 1e-8 {
			t.Errorf("coef %d = %v, want %v", i, m.Coef[i], c)
		}
	}
	pred := m.PredictAll(x)
	for i := range pred {
		if math.Abs(pred[i]-y[i]) > 1e-8 {
			t.Fatalf("prediction %d = %v, want %v", i, pred[i], y[i])
		}
	}
}

func TestFitHandlesNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 500
	x := linalg.NewMatrix(n, 1)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x.Set(i, 0, rng.NormFloat64())
		y[i] = 2*x.At(i, 0) + 0.1*rng.NormFloat64()
	}
	m, err := Fit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Coef[0]-2) > 0.05 {
		t.Errorf("slope = %v, want ~2", m.Coef[0])
	}
}

func TestLinearModelFailsOnMultiplicativeData(t *testing.T) {
	// y = x1*x2 cannot be captured linearly — the mechanism behind the
	// paper's Fig. 3/4 failures, including negative predictions for a
	// nonnegative quantity.
	rng := rand.New(rand.NewSource(3))
	n := 400
	x := linalg.NewMatrix(n, 2)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		a, b := rng.Float64()*10, rng.Float64()*10
		x.Set(i, 0, a)
		x.Set(i, 1, b)
		y[i] = a * b
	}
	m, err := Fit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	negatives := 0
	sse, sst := 0.0, 0.0
	mean := linalg.Mean(y)
	for i := 0; i < n; i++ {
		p := m.Predict(x.Row(i))
		if p < 0 {
			negatives++
		}
		sse += (p - y[i]) * (p - y[i])
		sst += (y[i] - mean) * (y[i] - mean)
	}
	if negatives == 0 {
		t.Error("expected some negative predictions for the multiplicative target")
	}
	if r2 := 1 - sse/sst; r2 > 0.95 {
		t.Errorf("R² = %v; linear model should not fit multiplicative data this well", r2)
	}
}

func TestFitErrors(t *testing.T) {
	x := linalg.NewMatrix(3, 2)
	if _, err := Fit(x, []float64{1, 2}); err == nil {
		t.Error("mismatched rows accepted")
	}
	if _, err := Fit(linalg.NewMatrix(0, 2), nil); err == nil {
		t.Error("empty design accepted")
	}
}
