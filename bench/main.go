// Command bench is the repository's benchmark: it builds the stock
// qpredictd, boots it as a child process, drives count-scheduled workloads
// at it through pkg/qpredictclient, verifies every answer, and prints the
// end-to-end metrics — or, traced, the per-layer metrics behind them. See
// README.md in this directory and BENCHMARK.json at the repository root.
//
//	go run ./bench                               every workload, end to end
//	go run ./bench -workload batch-cold -seed 7  one workload; last line is the JSON result
//	go run ./bench -workload batch-cold -trace 1 the same run's per-layer metrics and trace.json
//	go run ./bench -layers                       the in-process layer run alone, every workload
//	go run ./bench -aa 5                         two alternating sets of 5 runs; writes bench/AA.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
)

// runSeconds is BENCHMARK.json's run_seconds: how long one measured phase
// is scheduled to last.
const runSeconds = 15

func main() {
	name := flag.String("workload", "", "run this workload only and print the JSON result as the last line (default: all)")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Float64("seconds", runSeconds, "scheduled length of the measured phase; fixes every request count")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics instead of the end-to-end ones and writes trace.json")
	layers := flag.Bool("layers", false, "run only the in-process layer run")
	aa := flag.Int("aa", 0, "run the suite as two alternating sets of this many runs and write bench/AA.json")
	out := flag.String("out", ".bench_build", "directory for the daemon binary, its state and logs, and trace.json")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, *name, *seed, *seconds, *trace == 1, *layers, *aa, *out); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runner holds what every run of a process shares.
type runner struct {
	out     string
	boot    booter
	seconds float64
}

func run(ctx context.Context, name string, seed int64, seconds float64, trace, layers bool, aa int, out string) error {
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	todo := specs
	if name != "" {
		sp, ok := specByName(name)
		if !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		todo = []spec{sp}
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	r := &runner{out: out, seconds: seconds}
	if !layers {
		bin, err := buildDaemon(out)
		if err != nil {
			return err
		}
		r.boot = spawn(bin, filepath.Join(out, "qpredictd.log"), stock.train)
	}
	if aa > 0 {
		return r.aa(ctx, todo, seed, aa)
	}

	correct := true
	for _, sp := range todo {
		rep, err := r.one(ctx, sp, seed, trace, layers)
		if err != nil {
			return fmt.Errorf("%s: %w", sp.Name, err)
		}
		rep.print(os.Stdout)
		correct = correct && rep.Correct()
		if name != "" {
			line, err := json.Marshal(rep.wire(trace || layers))
			if err != nil {
				return err
			}
			fmt.Printf("%s\n", line)
		}
	}
	if !correct {
		return fmt.Errorf("verification failed")
	}
	return nil
}

// report is one run of one workload, ready to print.
type report struct {
	Workload string
	result
	Table string // the traced walk's per-layer self times
}

// Correct reports whether every operation of every phase succeeded.
func (rep *report) Correct() bool {
	_, failed := rep.failed()
	return failed == 0
}

// one runs a workload at the stock scale for the runner's seconds.
func (r *runner) one(ctx context.Context, sp spec, seed int64, trace, layersOnly bool) (*report, error) {
	return r.run(ctx, sp.at(r.seconds, stock, min(2, runtime.NumCPU())), seed, trace, layersOnly)
}

// run generates a plan's inputs from the seed and runs it: end to end, and
// — traced — through the layer run as well.
func (r *runner) run(ctx context.Context, p plan, seed int64, trace, layersOnly bool) (*report, error) {
	in, err := generate(seed, p)
	if err != nil {
		return nil, err
	}
	rep := &report{Workload: p.Name, result: result{Layer: map[string]float64{}}}
	if !layersOnly {
		res, err := runWorkload(ctx, r.boot, p, in, r.out)
		if err != nil {
			return nil, err
		}
		rep.result = *res
	}
	if trace || layersOnly {
		m, spans, err := runLayers(ctx, p, in, r.out)
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			rep.Layer[k] = v
		}
		if !layersOnly {
			rep.Layer["reconcile.client_minus_handler_us"] = rep.ClientP50MS*1e3 - m["serve.handler_us"]
		}
		rep.Table = layerTable(spans)
		if err := writeTrace(filepath.Join(r.out, "trace.json"), spans); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.Name == name {
			return d.Unit
		}
	}
	return ""
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// print writes one "workload/metric value unit" line per metric, then the
// per-phase counts and the run's fixed amounts of work.
func (rep *report) print(w *os.File) {
	for _, d := range endToEnd {
		if v, ok := rep.E2E[d.Name]; ok {
			fmt.Fprintf(w, "%s/%s %.6g %s\n", rep.Workload, d.Name, v, d.Unit)
		}
	}
	for _, k := range sortedKeys(rep.Layer) {
		fmt.Fprintf(w, "%s/%s %.6g %s\n", rep.Workload, k, rep.Layer[k], unitOf(perLayer, k))
	}
	for _, ph := range rep.Phases {
		fmt.Fprintf(w, "%s phase %s: %s in %.1f s\n", rep.Workload, ph.Name, ph.tally, ph.Seconds)
	}
	for _, k := range sortedKeys(rep.Counts) {
		fmt.Fprintf(w, "%s count %s = %d\n", rep.Workload, k, rep.Counts[k])
	}
	if rep.Table != "" {
		fmt.Fprintf(w, "%s layer table (traced walk)\n%s", rep.Workload, rep.Table)
	}
}

// wire is the result object the driver reads from the last line.
func (rep *report) wire(traced bool) any {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, vals := endToEnd, rep.E2E
	if traced {
		defs, vals = perLayer, rep.Layer
	}
	metrics := map[string]value{}
	for _, d := range defs {
		metrics[d.Name] = value{vals[d.Name], d.Unit}
	}
	attempted, failed := rep.failed()
	return struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{failed == 0, max(attempted, 1), failed, metrics}
}
