package pca

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

func TestFitRecoversDominantDirection(t *testing.T) {
	// Data stretched along (1,1)/√2 with small orthogonal noise.
	rng := rand.New(rand.NewSource(1))
	n := 200
	x := linalg.NewMatrix(n, 2)
	for i := 0; i < n; i++ {
		tt := rng.NormFloat64() * 10
		noise := rng.NormFloat64() * 0.1
		x.Set(i, 0, tt+noise)
		x.Set(i, 1, tt-noise)
	}
	m, err := Fit(x, 2)
	if err != nil {
		t.Fatal(err)
	}
	d := m.Components.Col(0)
	// First component should align with (1,1)/√2 up to sign.
	want := 1 / math.Sqrt2
	if math.Abs(math.Abs(d[0])-want) > 0.01 || math.Abs(math.Abs(d[1])-want) > 0.01 {
		t.Errorf("dominant direction = %v, want ±(0.707, 0.707)", d)
	}
	if m.Variances[0] < 100*m.Variances[1] {
		t.Errorf("variance ratio too small: %v", m.Variances)
	}
}

func TestProjectionCentersData(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 50
	x := linalg.NewMatrix(n, 3)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64() + 5 // offset mean
	}
	m, err := Fit(x, 2)
	if err != nil {
		t.Fatal(err)
	}
	sum := make([]float64, 2)
	for i := 0; i < n; i++ {
		p := m.Project(x.Row(i))
		if len(p) != 2 {
			t.Fatalf("projection dims = %d, want 2", len(p))
		}
		linalg.Axpy(1, p, sum)
	}
	for j, s := range sum {
		if mean := s / float64(n); math.Abs(mean) > 1e-8 {
			t.Errorf("projected column %d mean = %v, want 0", j, mean)
		}
	}
}

// TestFitAllComponentsKeepsTotalVariance: r = 0 keeps every component, the
// variances descend, and they sum to the trace of the sample covariance.
func TestFitAllComponentsKeepsTotalVariance(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := linalg.NewMatrix(40, 4)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	m, err := Fit(x, 0) // all components
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Variances) != 4 {
		t.Fatalf("%d components, want 4", len(m.Variances))
	}
	sum := 0.0
	for i, v := range m.Variances {
		if v < 0 || (i > 0 && v > m.Variances[i-1]+1e-12) {
			t.Errorf("variances not non-negative and descending: %v", m.Variances)
		}
		sum += v
	}
	trace := 0.0
	for j := 0; j < x.Cols; j++ {
		col := x.Col(j)
		mu := linalg.Mean(col)
		for _, v := range col {
			trace += (v - mu) * (v - mu) / float64(x.Rows-1)
		}
	}
	if math.Abs(sum-trace) > 1e-9*trace {
		t.Errorf("variances sum to %v, covariance trace %v", sum, trace)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(linalg.NewMatrix(1, 3), 2); err == nil {
		t.Error("single-row fit accepted")
	}
}
