package statutil

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42, "workload")
	b := NewRNG(42, "workload")
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same (seed, purpose) must yield the same stream")
		}
	}
}

func TestRNGStreamsIndependent(t *testing.T) {
	a := NewRNG(42, "workload")
	b := NewRNG(42, "noise")
	same := 0
	for i := 0; i < 50; i++ {
		if a.Int63() == b.Int63() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("streams with different purposes collided %d times", same)
	}
}

func TestUniformAndIntBetween(t *testing.T) {
	r := NewRNG(3, "u")
	for i := 0; i < 1000; i++ {
		v := r.Uniform(2, 5)
		if v < 2 || v >= 5 {
			t.Fatalf("Uniform out of range: %v", v)
		}
		k := r.IntBetween(3, 7)
		if k < 3 || k > 7 {
			t.Fatalf("IntBetween out of range: %d", k)
		}
	}
	if k := r.IntBetween(4, 4); k != 4 {
		t.Errorf("degenerate IntBetween = %d", k)
	}
}

func TestNoiseFactorCentered(t *testing.T) {
	r := NewRNG(5, "noise")
	sum := 0.0
	n := 20000
	for i := 0; i < n; i++ {
		sum += math.Log(r.NoiseFactor(0.1))
	}
	if mean := sum / float64(n); math.Abs(mean) > 0.01 {
		t.Errorf("log noise mean = %v, want ~0", mean)
	}
}

func TestSampleInts(t *testing.T) {
	r := NewRNG(6, "sample")
	got := r.SampleInts(10, 4)
	if len(got) != 4 {
		t.Fatalf("len = %d", len(got))
	}
	seen := map[int]bool{}
	for _, v := range got {
		if v < 0 || v >= 10 {
			t.Fatalf("out of range: %d", v)
		}
		if seen[v] {
			t.Fatalf("duplicate: %d", v)
		}
		seen[v] = true
	}
}

func TestQuantile(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5}
	if q := Quantile(v, 0.5); q != 3 {
		t.Errorf("median = %v, want 3", q)
	}
	if q := Quantile(v, 0); q != 1 {
		t.Errorf("q0 = %v, want 1", q)
	}
	if q := Quantile(v, 1); q != 5 {
		t.Errorf("q1 = %v, want 5", q)
	}
	if q := Quantile(v, 0.25); q != 2 {
		t.Errorf("q25 = %v, want 2", q)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("empty quantile should be NaN")
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b float64) bool {
		if len(raw) == 0 {
			return true
		}
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		qa := math.Mod(math.Abs(a), 1)
		qb := math.Mod(math.Abs(b), 1)
		if qa > qb {
			qa, qb = qb, qa
		}
		return Quantile(raw, qa) <= Quantile(raw, qb)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 6, 8})
	if s.N != 4 || s.Mean != 5 || s.Min != 2 || s.Max != 8 {
		t.Errorf("summary wrong: %+v", s)
	}
	if math.Abs(s.Std-math.Sqrt(5)) > 1e-12 {
		t.Errorf("std = %v", s.Std)
	}
	empty := Summarize(nil)
	if empty.N != 0 || !math.IsNaN(empty.Min) {
		t.Errorf("empty summary wrong: %+v", empty)
	}
}
