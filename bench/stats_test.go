package main

import (
	"math"
	"testing"
)

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentile(t *testing.T) {
	for _, tc := range []struct {
		name   string
		sorted []float64
		q      float64
		want   float64
		beyond int
	}{
		{"empty", nil, 0.99, 0, 0},
		{"one sample", []float64{7}, 0.99, 7, 0},
		{"median of odd", ramp(5), 0.50, 3, 2},
		{"median of even is the lower middle", ramp(4), 0.50, 2, 2},
		{"p99 of 100", ramp(100), 0.99, 99, 1},
		{"p99 of 1000", ramp(1000), 0.99, 990, 10},
		{"p99 of 1100", ramp(1100), 0.99, 1089, 11},
		{"p99 of 2000", ramp(2000), 0.99, 1980, 20},
		{"p99.9 of 2000", ramp(2000), 0.999, 1998, 2},
	} {
		got, beyond := percentile(tc.sorted, tc.q)
		if got != tc.want || beyond != tc.beyond {
			t.Errorf("%s: percentile = %v with %d beyond, want %v with %d", tc.name, got, beyond, tc.want, tc.beyond)
		}
	}
}

func TestTailNeedsSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		need int
		ok   bool
	}{
		{999, 0.99, 10, false}, // 9 beyond
		{1000, 0.99, 10, true}, // exactly 10
		{2000, 0.99, 20, true},
		{2000, 0.999, 10, false}, // p99.9 of 2000 has 2 beyond
		{200, 0.99, 1, true},
		{0, 0.99, 1, false},
	} {
		_, err := tail(ramp(tc.n), tc.q, tc.need)
		if (err == nil) != tc.ok {
			t.Errorf("tail(%d samples, q=%v, need %d): err = %v, want ok = %v", tc.n, tc.q, tc.need, err, tc.ok)
		}
	}
}

// A freeze of the machine delays a run of consecutive requests. It must
// move the window it falls in, not the reported tail.
func TestWindowedTailShrugsOffOneFreeze(t *testing.T) {
	quiet := make([]float64, 6000)
	for i := range quiet {
		quiet[i] = 3 + float64(i%100)/100 // 3.00 … 3.99 ms
	}
	frozen := append([]float64(nil), quiet...)
	for i := 2500; i < 2530; i++ { // thirty requests caught by one 100 ms freeze
		frozen[i] = 100 - 3*float64(i-2500)
	}
	want, err := windowedTail(quiet, 0.99, minBeyond)
	if err != nil {
		t.Fatal(err)
	}
	got, err := windowedTail(frozen, 0.99, minBeyond)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("windowed p99 moved from %v to %v under one freeze", want, got)
	}
	pooled, _ := percentile(sortedCopy(frozen), 0.997)
	if pooled < 10 {
		t.Errorf("the freeze should be visible in the pooled tail, p99.7 = %v", pooled)
	}
	// Too few samples for two windows: the pooled quantile, rule enforced.
	if v, err := windowedTail(ramp(2000), 0.99, minBeyond); err != nil || v != 1980 {
		t.Errorf("windowedTail of 2000 = %v, %v; want the pooled 1980", v, err)
	}
	if _, err := windowedTail(ramp(500), 0.99, minBeyond); err == nil {
		t.Error("windowedTail of 500 samples reported a p99 with fewer than 10 samples beyond it")
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4), which is
// what the acceptance check computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{ramp(10), 2.75, 8.25},
		{[]float64{3.2, 1.1, 4.8, 2.2}, 1.375, 4.3999999999999995},
		{[]float64{5, 1}, 0, 6},
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{2.5, 3.5, 1.0, 9.0, 4.0, 6.5, 7.0}, 2.5, 7},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; Python gives %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if got := spread(ramp(10)); math.Abs(got-1) > 1e-12 { // (8.25-2.75)/5.5
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}
