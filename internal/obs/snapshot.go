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

// StageSnapshot summarizes one span-timer stage.
type StageSnapshot struct {
	Name     string  `json:"name"`
	Count    int64   `json:"count"`
	TotalSec float64 `json:"total_sec"`
	MeanSec  float64 `json:"mean_sec"`
	MaxSec   float64 `json:"max_sec"`
}

// Snapshot is a point-in-time copy of every registered instrument. Maps
// marshal with sorted keys and Stages is sorted by name, so the JSON form
// is deterministic given deterministic metric values.
type Snapshot struct {
	Enabled    bool                         `json:"enabled"`
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Totals     map[string]float64           `json:"totals"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
	Stages     []StageSnapshot              `json:"stages"`
}

// Take collects the current value of every instrument.
func Take() Snapshot {
	s := Snapshot{
		Enabled:    Enabled(),
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
	stages.Range(func(k, v any) bool {
		st := v.(*Stage)
		n := st.Count()
		if n == 0 {
			// Registered but never fired (or zeroed by Reset): noise in
			// the snapshot and the timings table.
			return true
		}
		ss := StageSnapshot{
			Name:     k.(string),
			Count:    n,
			TotalSec: st.Total().Seconds(),
			MaxSec:   st.Max().Seconds(),
		}
		if n > 0 {
			ss.MeanSec = ss.TotalSec / float64(n)
		}
		s.Stages = append(s.Stages, ss)
		return true
	})
	sort.Slice(s.Stages, func(i, j int) bool { return s.Stages[i].Name < s.Stages[j].Name })
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

// TimingsTable renders the timing view served on /timings: the per-stage
// timing tree as an aligned text table (via the eval package's table
// renderer), then every latency histogram — one whose name ends in
// ".seconds" — that has observations. Stages sort by their dotted names,
// children indented under parents; the self column is a stage's total minus
// the totals of its direct children, when it has any. Histogram quantiles
// are bucket upper edges (see Histogram.Quantile).
func TimingsTable() string {
	s := Take()
	out := stageTable(s.Stages)
	if lat := latencyTable(s.Histograms); lat != "" {
		if out != "" {
			out += "\n"
		}
		out += lat
	}
	if out == "" {
		return "no stage timings recorded (enable with obs.SetEnabled or the -timings flag)\n"
	}
	return out
}

func latencyTable(hists map[string]HistogramSnapshot) string {
	var names []string
	for name, h := range hists {
		if strings.HasSuffix(name, ".seconds") && h.Count > 0 {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return ""
	}
	sort.Strings(names)
	rows := make([][]string, 0, len(names))
	for _, name := range names {
		h := hists[name]
		rows = append(rows, []string{
			name,
			fmt.Sprintf("%d", h.Count),
			fmt.Sprintf("%.3f", h.Mean*1e3),
			fmt.Sprintf("%.3f", h.P50*1e3),
			fmt.Sprintf("%.3f", h.P90*1e3),
			fmt.Sprintf("%.3f", h.P99*1e3),
		})
	}
	return eval.Table([]string{"histogram", "count", "mean_ms", "p50_ms", "p90_ms", "p99_ms"}, rows)
}

func stageTable(stages []StageSnapshot) string {
	if len(stages) == 0 {
		return ""
	}
	totalByName := map[string]float64{}
	for _, st := range stages {
		totalByName[st.Name] = st.TotalSec
	}
	childSum := map[string]float64{}
	for _, st := range stages {
		if i := strings.LastIndex(st.Name, "."); i > 0 {
			parent := st.Name[:i]
			if _, ok := totalByName[parent]; ok {
				childSum[parent] += st.TotalSec
			}
		}
	}
	rows := make([][]string, 0, len(stages))
	for _, st := range stages {
		indent := strings.Repeat("  ", strings.Count(st.Name, "."))
		self := st.TotalSec
		if cs, ok := childSum[st.Name]; ok {
			self -= cs
		}
		rows = append(rows, []string{
			indent + st.Name,
			fmt.Sprintf("%d", st.Count),
			fmt.Sprintf("%.4f", st.TotalSec),
			fmt.Sprintf("%.4f", self),
			fmt.Sprintf("%.3f", st.MeanSec*1e3),
			fmt.Sprintf("%.3f", st.MaxSec*1e3),
		})
	}
	return eval.Table(
		[]string{"stage", "calls", "total_s", "self_s", "mean_ms", "max_ms"},
		rows,
	)
}
