package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/wal"
)

// inProcess is a daemon wired the way cmd/qpredictd wires it, behind
// httptest instead of a child process, at a fraction of the stock sizes.
type inProcess struct{ ts *httptest.Server }

func (d *inProcess) URL() string { return d.ts.URL }
func (d *inProcess) PID() int    { return os.Getpid() }

// Kill stops listening and abandons the server undrained, as a crash does:
// no final snapshot, so a reboot has a WAL tail to replay.
func (d *inProcess) Kill() { d.ts.Close() }

func bootInProcess(sc scale) booter {
	return func(stateDir string) (target, error) {
		schema, machine, opt := catalog.TPCDS(1), exec.Research4(), core.DefaultOptions()
		planner := serve.NewPlanner(schema, daemonDataSeed, machine, sc.planCache)
		cfg := serve.Config{Schema: schema, Machine: machine, DataSeed: daemonDataSeed, Plans: planner, Window: stockWindow, MaxBatch: stockMaxBatch}
		var err error
		if stateDir != "" {
			cfg.Store, err = wal.OpenStore(wal.StoreOptions{Dir: filepath.Join(stateDir, "shard-0"), SnapshotEvery: sc.snapshotEvery, Plan: planner.Plan})
			if err != nil {
				return nil, err
			}
			if cfg.Sliding, cfg.BootGen, err = cfg.Store.Recover(sc.window, sc.retrainEvery, opt); err != nil {
				return nil, err
			}
		} else if cfg.Sliding, err = core.NewSliding(sc.window, sc.retrainEvery, opt); err != nil {
			return nil, err
		}
		if cfg.BootGen == 0 {
			train, err := simulated(stockTrainSeed, sc.train)
			if err != nil {
				return nil, err
			}
			if cfg.Predictor, err = core.Train(train, opt); err != nil {
				return nil, err
			}
		}
		svc, err := serve.New(cfg)
		if err != nil {
			return nil, err
		}
		mux := http.NewServeMux()
		mux.Handle("/", svc.Handler())
		mux.Handle("/metrics", obs.Handler())
		mux.Handle("/debug/", obs.Handler())
		return &inProcess{httptest.NewServer(mux)}, nil
	}
}

var smokeScale = scale{
	train: 120, window: 40, retrainEvery: 10, snapshotEvery: 40,
	planCache: 256, hotPool: 50, coldPool: 640, heldout: 64, probes: 5, boots: 1,
	minBeyond: 1, walk: 8, reps: 4,
}

// -update rewrites ../BENCHMARK.json from the tables in the code, the one
// place metrics and workloads are defined: go test ./bench -run Smoke -update
var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the code")

// declaration is BENCHMARK.json.
type declaration struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []declaredWorkload `json:"workloads"`
	EndToEnd   []metricDef        `json:"end_to_end"`
	PerLayer   []metricDef        `json:"per_layer"`
}

type declaredWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func declared() declaration {
	d := declaration{Command: []string{"go", "run", "./bench"}, Paths: []string{"bench"}, RunSeconds: runSeconds, EndToEnd: endToEnd, PerLayer: perLayer}
	for _, sp := range specs {
		d.Workloads = append(d.Workloads, declaredWorkload{sp.Name, sp.Why})
	}
	return d
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every declared workload end to end and through the layer
// run against the in-process daemon — 200 requests each and a 50-observe
// feedback leg — and holds the output to BENCHMARK.json: every declared
// metric is emitted, exactly once, under a well-formed name.
func TestSmoke(t *testing.T) {
	want, err := json.MarshalIndent(declared(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if *update {
		if err := os.WriteFile("../BENCHMARK.json", want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from the tables in the code (go test ./bench -run Smoke -update rewrites it); want:\n%s", want)
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or used twice", d.Name)
		}
		seen[d.Name] = true
	}

	r := &runner{out: t.TempDir(), boot: bootInProcess(smokeScale)}
	for _, sp := range specs {
		if len(sp.Why) > 200 || !nameRE.MatchString(sp.Name) || seen[sp.Name] {
			t.Errorf("workload %q: malformed or reused name, or a why of %d characters", sp.Name, len(sp.Why))
		}
		seen[sp.Name] = true
		// The shape of the stock workload at a tenth of the time.
		p := sp.at(1, smokeScale, 2)
		p.rate, p.observeRate = 10*p.rate, 10*p.observeRate
		p.predicts = 200
		if p.observeRate > 0 {
			p.observes = 50
		}
		rep, err := r.run(context.Background(), p, 1, true, false)
		if err != nil {
			t.Fatalf("%s: %v", sp.Name, err)
		}
		if !rep.Correct() {
			rep.print(os.Stderr)
			t.Errorf("%s: verification failed", sp.Name)
		}
		for _, d := range endToEnd {
			if v, ok := rep.E2E[d.Name]; !ok || v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v (present: %v), want it measured and positive", sp.Name, d.Name, v, ok)
			}
		}
		for _, d := range perLayer {
			if _, ok := rep.Layer[d.Name]; !ok {
				t.Errorf("%s: per-layer metric %s not emitted", sp.Name, d.Name)
			}
		}
		if n := len(rep.E2E) + len(rep.Layer); n != len(endToEnd)+len(perLayer) {
			t.Errorf("%s: %d metrics emitted, %d declared", sp.Name, n, len(endToEnd)+len(perLayer))
		}
		if p.observeRate > 0 {
			if got := rep.Counts["retrains_measured"]; got != int64(p.swaps()) {
				t.Errorf("%s: %d retrains in the measured phase, the schedule fixes %d", sp.Name, got, p.swaps())
			}
			if got := rep.Counts["records_replayed"]; got != int64(p.walTail()) || got == 0 {
				t.Errorf("%s: recovery replayed %d records, the schedule leaves %d", sp.Name, got, p.walTail())
			}
		}
	}
}
