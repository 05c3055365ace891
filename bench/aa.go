package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// aaRow compares two sets of runs of the same code on one metric of one
// workload. Spread is a set's interquartile range over its median; Gap is
// how much worse set B's median reads than set A's, in the metric's own
// "better" direction, as a share of A's. Both are judged against Bound.
type aaRow struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Bound    float64   `json:"bound"`
	A        []float64 `json:"a"`
	B        []float64 `json:"b"`
	MedianA  float64   `json:"median_a"`
	MedianB  float64   `json:"median_b"`
	Q1A      float64   `json:"q1_a"`
	Q3A      float64   `json:"q3_a"`
	Q1B      float64   `json:"q1_b"`
	Q3B      float64   `json:"q3_b"`
	SpreadA  float64   `json:"spread_a"`
	SpreadB  float64   `json:"spread_b"`
	Spread   float64   `json:"spread_all"` // over both sets together
	Gap      float64   `json:"gap"`
	Within   bool      `json:"within_bound"`
}

// hostRows are recorded beside the end-to-end metrics, unbounded: how much
// the host itself moved during the A/A, and what CPU per query would have
// read unscaled.
var hostRows = []metricDef{
	{Name: "host.ref_us", Unit: "us", Better: "lower"},
	{Name: "host.cpu_ms_per_query_raw", Unit: "ms", Better: "lower"},
}

// aa runs the suite n times for set A and n times for set B, alternating
// A, B, A, B… so both sets see the same drift of the machine, with a new
// seed for every run as the acceptance check does. It writes bench/AA.json,
// the evidence for the bounds in BENCHMARK.json.
func (r *runner) aa(ctx context.Context, todo []spec, seed int64, n int) error {
	if n < 2 {
		return fmt.Errorf("-aa needs at least 2 runs per set")
	}
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	for i := 0; i < 2*n; i++ {
		for _, sp := range todo {
			rep, err := r.one(ctx, sp, seed+int64(i), false, false)
			if err != nil {
				return fmt.Errorf("%s run %d: %w", sp.Name, i, err)
			}
			if !rep.Correct() {
				rep.print(os.Stdout)
				return fmt.Errorf("%s run %d: verification failed", sp.Name, i)
			}
			for m, v := range rep.E2E {
				k := key{sp.Name, m}
				sets[i%2][k] = append(sets[i%2][k], v)
			}
			for _, d := range hostRows {
				k := key{sp.Name, d.Name}
				sets[i%2][k] = append(sets[i%2][k], rep.Layer[d.Name])
			}
			fmt.Fprintf(os.Stderr, "aa: run %d/%d %s done\n", i+1, 2*n, sp.Name)
		}
	}
	var rows []aaRow
	ok := true
	fmt.Printf("%-15s %-17s %12s %12s %8s %8s %8s %8s %6s\n", "workload", "metric", "median_a", "median_b", "spread_a", "spread_b", "spread", "gap", "bound")
	for _, sp := range todo {
		for _, d := range append(endToEnd[:len(endToEnd):len(endToEnd)], hostRows...) {
			a, b := sets[0][key{sp.Name, d.Name}], sets[1][key{sp.Name, d.Name}]
			row := aaRow{Workload: sp.Name, Metric: d.Name, Unit: d.Unit, Bound: d.Bound, A: a, B: b,
				MedianA: median(a), MedianB: median(b), SpreadA: spread(a), SpreadB: spread(b), Spread: spread(append(a[:len(a):len(a)], b...))}
			row.Q1A, row.Q3A = quartiles(a)
			row.Q1B, row.Q3B = quartiles(b)
			row.Gap = (row.MedianB - row.MedianA) / row.MedianA
			if d.Better == "higher" {
				row.Gap = -row.Gap
			}
			// setup_s is held to the gap only: its spread is what the
			// median of several boots is there to absorb. The host rows
			// carry no bound at all.
			row.Within = d.Bound == 0 || row.Gap <= d.Bound && (d.Name == "setup_s" || (row.SpreadA <= d.Bound && row.SpreadB <= d.Bound))
			ok = ok && row.Within
			rows = append(rows, row)
			fmt.Printf("%-15s %-17s %12.6g %12.6g %8.4f %8.4f %8.4f %+8.4f %6.2f\n", row.Workload, row.Metric, row.MedianA, row.MedianB, row.SpreadA, row.SpreadB, row.Spread, row.Gap, row.Bound)
		}
	}
	doc := struct {
		Date       string  `json:"date"`
		RunsPerSet int     `json:"runs_per_set"`
		Seconds    float64 `json:"seconds"`
		FirstSeed  int64   `json:"first_seed"`
		Rows       []aaRow `json:"rows"`
	}{time.Now().UTC().Format("2006-01-02"), n, r.seconds, seed, rows}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join("bench", "AA.json"), append(data, '\n'), 0o644); err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("A/A: a metric moved by more than its bound between two sets of runs of the same code")
	}
	return nil
}
