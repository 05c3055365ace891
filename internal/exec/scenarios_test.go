package exec

import (
	"runtime"
	"testing"

	"repro/internal/parallel"
	"repro/internal/statutil"
)

// TestSimulateScenariosMatchesSerialLoop: the parallel scenario sweep must
// return exactly what a serial SimulateConcurrent loop returns, at every
// worker count.
func TestSimulateScenariosMatchesSerialLoop(t *testing.T) {
	r := statutil.NewRNG(3, "scenarios")
	n := 60
	arrivals := make([]float64, n)
	solo := make([]float64, n)
	tm := 0.0
	for i := 0; i < n; i++ {
		tm += r.Uniform(0, 10)
		arrivals[i] = tm
		solo[i] = r.Uniform(0.5, 300)
	}
	scenarios := []Scenario{
		{MaxConcurrent: 0, Interference: 0},
		{MaxConcurrent: 1, Interference: 0.5},
		{MaxConcurrent: 2, Interference: 0.7},
		{MaxConcurrent: 4, Interference: 0.7},
		{MaxConcurrent: 8, Interference: 1},
	}

	want := make([]ConcurrentOutcome, len(scenarios))
	for i, sc := range scenarios {
		out, err := SimulateConcurrent(arrivals, solo, sc.MaxConcurrent, sc.Interference)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = out
	}

	for _, w := range []int{1, 2, 7, runtime.NumCPU()} {
		defer parallel.SetMaxProcs(parallel.SetMaxProcs(w))
		got, err := SimulateScenarios(arrivals, solo, scenarios)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i].Makespan != want[i].Makespan || got[i].MaxRunning != want[i].MaxRunning {
				t.Fatalf("workers=%d scenario %d: makespan %v / peak %d, serial %v / %d",
					w, i, got[i].Makespan, got[i].MaxRunning, want[i].Makespan, want[i].MaxRunning)
			}
			for j := range got[i].Completion {
				if got[i].Completion[j] != want[i].Completion[j] || got[i].Start[j] != want[i].Start[j] {
					t.Fatalf("workers=%d scenario %d query %d: start/completion differ from serial", w, i, j)
				}
			}
		}
		parallel.SetMaxProcs(0)
	}
}

// TestSimulateScenariosPropagatesError: one invalid scenario fails the
// whole sweep, as the serial loop would.
func TestSimulateScenariosPropagatesError(t *testing.T) {
	if _, err := SimulateScenarios([]float64{0}, []float64{1}, []Scenario{
		{MaxConcurrent: 1, Interference: 0.5},
		{MaxConcurrent: 1, Interference: 2}, // out of range
	}); err == nil {
		t.Fatal("invalid interference not rejected")
	}
	got, err := SimulateScenarios([]float64{0}, []float64{1}, nil)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty sweep: %v, %d outcomes", err, len(got))
	}
}
