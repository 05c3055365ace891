// Package eval implements the paper's evaluation machinery: the predictive
// risk metric of Sec. VI-C (an R²-style statistic computed on held-out test
// queries), the within-20% accuracy rate the paper headlines, outlier
// trimming, and text rendering of tables and log-log scatter plots for the
// experiment reports.
package eval

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// PredictiveRisk computes
//
//	1 − Σ(predᵢ − actᵢ)² / Σ(actᵢ − mean(act))²
//
// on test data. Values near 1 indicate near-perfect prediction; negative
// values are possible (and meaningful) because the test set is disjoint
// from training. NaN is returned when the actuals are degenerate (zero
// variance — the paper reports such cells as Null in Fig. 16).
func PredictiveRisk(pred, act []float64) float64 {
	if len(pred) != len(act) || len(act) == 0 {
		return math.NaN()
	}
	mean := 0.0
	for _, a := range act {
		mean += a
	}
	mean /= float64(len(act))
	var sse, sst float64
	for i := range act {
		d := pred[i] - act[i]
		sse += d * d
		v := act[i] - mean
		sst += v * v
	}
	if sst == 0 {
		return math.NaN()
	}
	return 1 - sse/sst
}

// PredictiveRiskTrimmed removes the `trim` points with the largest squared
// error before computing predictive risk — the paper repeatedly notes how
// much one or two outliers move the metric.
func PredictiveRiskTrimmed(pred, act []float64, trim int) float64 {
	if trim <= 0 || len(pred) != len(act) || trim >= len(act) {
		return PredictiveRisk(pred, act)
	}
	type pa struct{ p, a float64 }
	items := make([]pa, len(act))
	for i := range act {
		items[i] = pa{pred[i], act[i]}
	}
	sort.Slice(items, func(i, j int) bool {
		di := (items[i].p - items[i].a) * (items[i].p - items[i].a)
		dj := (items[j].p - items[j].a) * (items[j].p - items[j].a)
		return di < dj
	})
	items = items[:len(items)-trim]
	p := make([]float64, len(items))
	a := make([]float64, len(items))
	for i, it := range items {
		p[i], a[i] = it.p, it.a
	}
	return PredictiveRisk(p, a)
}

// WithinFactor returns the fraction of predictions within the given
// relative error of the actual value (0.2 = the paper's "within 20%").
func WithinFactor(pred, act []float64, frac float64) float64 {
	if len(pred) != len(act) || len(act) == 0 {
		return math.NaN()
	}
	ok := 0
	for i := range act {
		denom := math.Abs(act[i])
		if denom == 0 {
			if pred[i] == 0 {
				ok++
			}
			continue
		}
		if math.Abs(pred[i]-act[i])/denom <= frac {
			ok++
		}
	}
	return float64(ok) / float64(len(act))
}

// OrdersOfMagnitudeOff returns how many predictions are off by at least
// the given factor (e.g. 10 for "an order of magnitude").
func OrdersOfMagnitudeOff(pred, act []float64, factor float64) int {
	n := 0
	for i := range pred {
		p, a := pred[i], act[i]
		if p <= 0 || a <= 0 {
			if p != a {
				n++
			}
			continue
		}
		r := p / a
		if r >= factor || r <= 1/factor {
			n++
		}
	}
	return n
}

// LogBestFit fits log(b) = slope·log(a) + intercept over positive pairs —
// the "line of best fit" of Fig. 17 — and returns the fit along with the
// fraction of points at least 10x and 100x away from it.
func LogBestFit(a, b []float64) (slope, intercept float64, frac10x, frac100x float64) {
	var xs, ys []float64
	for i := range a {
		if a[i] > 0 && b[i] > 0 {
			xs = append(xs, math.Log10(a[i]))
			ys = append(ys, math.Log10(b[i]))
		}
	}
	n := float64(len(xs))
	if n < 2 {
		return math.NaN(), math.NaN(), math.NaN(), math.NaN()
	}
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return math.NaN(), math.NaN(), math.NaN(), math.NaN()
	}
	slope = (n*sxy - sx*sy) / den
	intercept = (sy - slope*sx) / n
	off10, off100 := 0, 0
	for i := range xs {
		resid := math.Abs(ys[i] - (slope*xs[i] + intercept))
		if resid >= 1 {
			off10++
		}
		if resid >= 2 {
			off100++
		}
	}
	return slope, intercept, float64(off10) / n, float64(off100) / n
}

// FormatRisk renders a predictive risk value the way the paper's tables
// do, with NaN shown as Null (Fig. 16's disk-I/O cells).
func FormatRisk(r float64) string {
	if math.IsNaN(r) {
		return "Null"
	}
	return fmt.Sprintf("%.2f", r)
}

// Table renders a simple aligned text table.
func Table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	writeRow(header)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, row := range rows {
		writeRow(row)
	}
	return sb.String()
}

// ScatterLogLog renders an ASCII log-log scatter plot of predicted vs
// actual values (the shape of the paper's Figs. 3, 8, 10-15, 17). Points
// on the diagonal are perfect predictions. Nonpositive values are clamped
// to the axis minimum.
func ScatterLogLog(pred, act []float64, width, height int, title string) string {
	if width < 20 {
		width = 20
	}
	if height < 10 {
		height = 10
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range append(append([]float64{}, pred...), act...) {
		if v > 0 {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
	}
	if math.IsInf(lo, 1) {
		return title + ": no positive data\n"
	}
	llo, lhi := math.Log10(lo), math.Log10(hi)
	if lhi-llo < 1e-9 {
		lhi = llo + 1
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	scale := func(v float64, cells int) int {
		if v <= 0 {
			v = lo
		}
		f := (math.Log10(v) - llo) / (lhi - llo)
		c := int(f * float64(cells-1))
		if c < 0 {
			c = 0
		}
		if c >= cells {
			c = cells - 1
		}
		return c
	}
	// Diagonal (perfect prediction) first, points on top.
	for x := 0; x < width; x++ {
		y := int(float64(x) / float64(width-1) * float64(height-1))
		grid[height-1-y][x] = '.'
	}
	for i := range pred {
		x := scale(pred[i], width)
		y := scale(act[i], height)
		grid[height-1-y][x] = '*'
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s  (x: predicted, y: actual, log-log %.2g..%.2g)\n", title, lo, hi)
	for _, row := range grid {
		sb.WriteByte('|')
		sb.Write(row)
		sb.WriteByte('\n')
	}
	sb.WriteByte('+')
	sb.WriteString(strings.Repeat("-", width))
	sb.WriteByte('\n')
	return sb.String()
}
