package obs

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/eval"
)

// BucketCount is one non-empty histogram bucket in a snapshot.
type BucketCount struct {
	UpperEdge float64 `json:"upper_edge"`
	Count     int64   `json:"count"`
}

// HistogramSnapshot summarizes one histogram.
type HistogramSnapshot struct {
	Count   int64         `json:"count"`
	Sum     float64       `json:"sum"`
	Mean    float64       `json:"mean"`
	P50     float64       `json:"p50"`
	P90     float64       `json:"p90"`
	P99     float64       `json:"p99"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time copy of every registered instrument. Maps
// marshal with sorted keys, so the JSON form is deterministic given
// deterministic metric values.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Totals     map[string]float64           `json:"totals"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Take collects the current value of every instrument.
func Take() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Totals:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	counters.Range(func(k, v any) bool {
		s.Counters[k.(string)] = v.(*Counter).Value()
		return true
	})
	gauges.Range(func(k, v any) bool {
		s.Gauges[k.(string)] = v.(*Gauge).Value()
		return true
	})
	totals.Range(func(k, v any) bool {
		s.Totals[k.(string)] = v.(*FloatTotal).Value()
		return true
	})
	hists.Range(func(k, v any) bool {
		h := v.(*Histogram)
		hs := HistogramSnapshot{
			Count: h.Count(),
			Sum:   h.Sum(),
			Mean:  h.Mean(),
			P50:   h.Quantile(0.50),
			P90:   h.Quantile(0.90),
			P99:   h.Quantile(0.99),
		}
		for i := range h.buckets {
			if c := h.buckets[i].Load(); c > 0 {
				hs.Buckets = append(hs.Buckets, BucketCount{UpperEdge: UpperEdge(i), Count: c})
			}
		}
		s.Histograms[k.(string)] = hs
		return true
	})
	return s
}

// JSON returns the indented JSON encoding of Take().
func JSON() []byte {
	out, err := json.MarshalIndent(Take(), "", "  ")
	if err != nil {
		return []byte(fmt.Sprintf(`{"error": %q}`, err.Error()))
	}
	return out
}

// TimingsTable renders the timing view served on /timings: every latency
// histogram — one whose name ends in ".seconds" — that has observations, as
// one aligned table (via the eval package's table renderer). A stage is a
// histogram's name without the suffix, and its parent the stage named by
// the name up to its last dot, when that stage is listed too. Stages sort by
// their dotted names, children indented under parents, and the self column
// is a stage's total minus the totals of its direct children. Quantiles are
// bucket upper edges (see Histogram.Quantile).
func TimingsTable() string {
	hists := Take().Histograms
	var stages []string
	total := map[string]float64{}
	for name, h := range hists {
		if stage, ok := strings.CutSuffix(name, ".seconds"); ok && h.Count > 0 {
			stages = append(stages, stage)
			total[stage] = h.Sum
		}
	}
	if len(stages) == 0 {
		return "no stage timings recorded\n"
	}
	sort.Strings(stages)
	// A parent sorts before its children, so its depth is known first.
	depth, childSum := map[string]int{}, map[string]float64{}
	for _, st := range stages {
		if i := strings.LastIndex(st, "."); i > 0 {
			if _, ok := total[st[:i]]; ok {
				depth[st] = depth[st[:i]] + 1
				childSum[st[:i]] += total[st]
			}
		}
	}
	rows := make([][]string, 0, len(stages))
	for _, st := range stages {
		h := hists[st+".seconds"]
		rows = append(rows, []string{
			strings.Repeat("  ", depth[st]) + st,
			fmt.Sprintf("%d", h.Count),
			fmt.Sprintf("%.4f", h.Sum),
			fmt.Sprintf("%.4f", h.Sum-childSum[st]),
			fmt.Sprintf("%.3f", h.Mean*1e3),
			fmt.Sprintf("%.3f", h.P50*1e3),
			fmt.Sprintf("%.3f", h.P99*1e3),
		})
	}
	return eval.Table([]string{"stage", "calls", "total_s", "self_s", "mean_ms", "p50_ms", "p99_ms"}, rows)
}
