package eval

import (
	"math"
	"strings"
	"testing"
)

func TestPredictiveRiskPerfect(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	if r := PredictiveRisk(a, a); math.Abs(r-1) > 1e-12 {
		t.Errorf("perfect risk = %v, want 1", r)
	}
}

func TestPredictiveRiskMeanPredictor(t *testing.T) {
	act := []float64{1, 2, 3, 4, 5}
	pred := []float64{3, 3, 3, 3, 3} // predicting the mean gives risk 0
	if r := PredictiveRisk(pred, act); math.Abs(r) > 1e-12 {
		t.Errorf("mean-predictor risk = %v, want 0", r)
	}
}

func TestPredictiveRiskNegative(t *testing.T) {
	act := []float64{1, 2, 3}
	pred := []float64{100, -50, 300}
	if r := PredictiveRisk(pred, act); r >= 0 {
		t.Errorf("terrible predictions should give negative risk, got %v", r)
	}
}

func TestPredictiveRiskDegenerate(t *testing.T) {
	// Constant actuals (e.g. all-zero disk I/O on big-memory configs) give
	// NaN — rendered as Null like Fig. 16.
	if r := PredictiveRisk([]float64{0, 0}, []float64{0, 0}); !math.IsNaN(r) {
		t.Errorf("degenerate risk = %v, want NaN", r)
	}
	if FormatRisk(math.NaN()) != "Null" {
		t.Error("NaN should format as Null")
	}
	if FormatRisk(0.5512) != "0.55" {
		t.Errorf("FormatRisk = %q", FormatRisk(0.5512))
	}
	if !math.IsNaN(PredictiveRisk([]float64{1}, []float64{1, 2})) {
		t.Error("length mismatch should be NaN")
	}
}

func TestPredictiveRiskTrimmed(t *testing.T) {
	act := []float64{1, 2, 3, 4, 1000}
	pred := []float64{1, 2, 3, 4, 1} // one huge outlier
	full := PredictiveRisk(pred, act)
	trimmed := PredictiveRiskTrimmed(pred, act, 1)
	if trimmed <= full {
		t.Errorf("trimming the outlier should improve risk: %v vs %v", full, trimmed)
	}
	if math.Abs(trimmed-1) > 1e-12 {
		t.Errorf("trimmed risk = %v, want 1", trimmed)
	}
	// No-op cases.
	if PredictiveRiskTrimmed(pred, act, 0) != full {
		t.Error("trim=0 should equal untrimmed")
	}
	if PredictiveRiskTrimmed(pred, act, 10) != full {
		t.Error("trim >= n should equal untrimmed")
	}
}

func TestWithinFactor(t *testing.T) {
	act := []float64{100, 100, 100, 100}
	pred := []float64{110, 119, 121, 250}
	// 10%% and 19%% qualify; 21%% and 150%% do not.
	if w := WithinFactor(pred, act, 0.2); math.Abs(w-0.5) > 1e-12 {
		t.Errorf("within 20%% = %v, want 0.5", w)
	}
	// Zero actuals only match zero predictions.
	if w := WithinFactor([]float64{0, 1}, []float64{0, 0}, 0.2); math.Abs(w-0.5) > 1e-12 {
		t.Errorf("zero-actual handling = %v, want 0.5", w)
	}
	if !math.IsNaN(WithinFactor(nil, nil, 0.2)) {
		t.Error("empty should be NaN")
	}
}

func TestOrdersOfMagnitudeOff(t *testing.T) {
	pred := []float64{1, 10, 100, -5}
	act := []float64{1, 1, 1, 1}
	// 10/1 = 10x (counted), 100/1 (counted), -5 vs 1 (counted).
	if n := OrdersOfMagnitudeOff(pred, act, 10); n != 3 {
		t.Errorf("oom = %d, want 3", n)
	}
}

func TestLogBestFit(t *testing.T) {
	// b = a² in log space: slope 2, intercept 0.
	a := []float64{1, 10, 100, 1000}
	b := []float64{1, 100, 10000, 1000000}
	slope, icept, f10, f100 := LogBestFit(a, b)
	if math.Abs(slope-2) > 1e-9 || math.Abs(icept) > 1e-9 {
		t.Errorf("fit = %v, %v; want 2, 0", slope, icept)
	}
	if f10 != 0 || f100 != 0 {
		t.Errorf("fractions off = %v, %v; want 0", f10, f100)
	}
	// A strong outlier against an otherwise clean identity relation.
	a2 := []float64{1, 10, 100, 1000, 10000}
	b2 := []float64{1, 10, 100, 1000, 1e7}
	_, _, f10b, _ := LogBestFit(a2, b2)
	if f10b == 0 {
		t.Error("outlier should register as off the fit")
	}
	if s, _, _, _ := LogBestFit([]float64{1}, []float64{1}); !math.IsNaN(s) {
		t.Error("single point should be NaN")
	}
}

func TestTable(t *testing.T) {
	out := Table([]string{"Metric", "Value"}, [][]string{{"elapsed", "0.55"}, {"disk", "Null"}})
	if !strings.Contains(out, "Metric") || !strings.Contains(out, "Null") {
		t.Errorf("table missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Errorf("table has %d lines, want 4", len(lines))
	}
}

func TestScatterLogLog(t *testing.T) {
	pred := []float64{0.1, 1, 10, 100}
	act := []float64{0.1, 1.2, 9, 200}
	plot := ScatterLogLog(pred, act, 40, 12, "test")
	if !strings.Contains(plot, "*") || !strings.Contains(plot, "test") {
		t.Errorf("plot missing marks:\n%s", plot)
	}
	// Degenerate data.
	if out := ScatterLogLog([]float64{-1}, []float64{-2}, 40, 12, "none"); !strings.Contains(out, "no positive data") {
		t.Errorf("degenerate plot = %q", out)
	}
}
