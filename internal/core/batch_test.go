package core

import (
	"runtime"
	"testing"

	"repro/internal/parallel"
)

// TestPredictBatchMatchesSerialLoop is the end-to-end equivalence test for
// the Fig. 7 pipeline: batch prediction across worker counts must be
// positionally bit-identical to a one-worker PredictQuery loop — metrics,
// category, confidence, and the neighbor lists themselves.
func TestPredictBatchMatchesSerialLoop(t *testing.T) {
	train, test := trainTest(t)
	p, err := Train(train, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	defer parallel.SetMaxProcs(parallel.SetMaxProcs(1))
	want := make([]*Prediction, len(test))
	for i, q := range test {
		pr, err := p.PredictQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = pr
	}

	for _, w := range []int{1, 2, 7, runtime.NumCPU()} {
		parallel.SetMaxProcs(w)
		got, err := p.PredictBatch(test)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d predictions, want %d", w, len(got), len(want))
		}
		for i := range got {
			if got[i].Metrics != want[i].Metrics {
				t.Fatalf("workers=%d query %d: metrics %+v, serial %+v", w, i, got[i].Metrics, want[i].Metrics)
			}
			if got[i].Category != want[i].Category {
				t.Fatalf("workers=%d query %d: category %v, serial %v", w, i, got[i].Category, want[i].Category)
			}
			if got[i].Confidence != want[i].Confidence {
				t.Fatalf("workers=%d query %d: confidence %v, serial %v", w, i, got[i].Confidence, want[i].Confidence)
			}
			if len(got[i].Neighbors) != len(want[i].Neighbors) {
				t.Fatalf("workers=%d query %d: %d neighbors, serial %d", w, i, len(got[i].Neighbors), len(want[i].Neighbors))
			}
			for j := range got[i].Neighbors {
				if got[i].Neighbors[j] != want[i].Neighbors[j] {
					t.Fatalf("workers=%d query %d: neighbor %d = %+v, serial %+v", w, i, j, got[i].Neighbors[j], want[i].Neighbors[j])
				}
			}
		}
	}
	parallel.SetMaxProcs(0)
}

// TestTrainDeterministicAcrossWorkerCounts retrains the full KCCA model at
// several worker counts and checks the training projections are identical:
// parallel training must not perturb the model itself.
func TestTrainDeterministicAcrossWorkerCounts(t *testing.T) {
	train, _ := trainTest(t)
	sub := train[:60]

	defer parallel.SetMaxProcs(parallel.SetMaxProcs(1))
	ref, err := Train(sub, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	for _, w := range []int{2, runtime.NumCPU()} {
		parallel.SetMaxProcs(w)
		p, err := Train(sub, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if !p.Model().QueryProj.Equal(ref.Model().QueryProj, 0) {
			t.Fatalf("workers=%d: query projection differs from serial training", w)
		}
	}
	parallel.SetMaxProcs(0)
}

// TestPredictBatchEmpty covers the degenerate batch.
func TestPredictBatchEmpty(t *testing.T) {
	train, _ := trainTest(t)
	p, err := Train(train[:40], DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.PredictBatch(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty batch returned %d predictions", len(got))
	}
}
