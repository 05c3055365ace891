package core

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/workload"
)

func TestNewSlidingValidation(t *testing.T) {
	if _, err := NewSliding(3, 1, DefaultOptions()); err == nil {
		t.Error("tiny capacity accepted")
	}
	if _, err := NewSliding(10, 0, DefaultOptions()); err == nil {
		t.Error("zero interval accepted")
	}
	if _, err := NewSliding(10, 20, DefaultOptions()); err == nil {
		t.Error("interval beyond capacity accepted")
	}
	if _, err := NewSliding(50, 10, DefaultOptions()); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestSlidingObserveAndRetrain(t *testing.T) {
	ds := pool(t)
	s, err := NewSliding(120, 40, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if s.Ready() {
		t.Error("fresh predictor should not be ready")
	}
	if _, err := s.PredictQuery(ds.Queries[0]); err == nil {
		t.Error("prediction before training accepted")
	}

	for i, q := range ds.Queries[:40] {
		if err := s.Observe(q); err != nil {
			t.Fatalf("observe %d: %v", i, err)
		}
	}
	if !s.Ready() || s.Retrains() != 1 {
		t.Fatalf("expected one retraining after 40 observations, got %d", s.Retrains())
	}
	if s.WindowSize() != 40 {
		t.Errorf("window = %d", s.WindowSize())
	}

	pred, err := s.PredictQuery(ds.Queries[200])
	if err != nil {
		t.Fatal(err)
	}
	if pred.Metrics.ElapsedSec < 0 {
		t.Error("negative prediction")
	}
}

func TestSlidingWindowEvicts(t *testing.T) {
	ds := pool(t)
	s, err := NewSliding(60, 30, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range ds.Queries[:200] {
		if err := s.Observe(q); err != nil {
			t.Fatal(err)
		}
	}
	if s.WindowSize() != 60 {
		t.Errorf("window = %d, want capacity 60", s.WindowSize())
	}
	// 200 observations / 30 per retrain = 6 trainings.
	if s.Retrains() != 6 {
		t.Errorf("retrains = %d, want 6", s.Retrains())
	}
	// The window holds the 60 MOST RECENT queries, oldest first.
	w := s.Window()
	if w[len(w)-1].ID != ds.Queries[199].ID {
		t.Error("window tail is not the latest query")
	}
	if w[0].ID != ds.Queries[140].ID {
		t.Errorf("window head = %d, want 140", w[0].ID)
	}
}

// TestSlidingRingMatchesNaive is the regression test for the ring-buffer
// eviction rewrite: window contents/order and retrain cadence must match
// the original copy-down implementation exactly at every step.
func TestSlidingRingMatchesNaive(t *testing.T) {
	ds := pool(t)
	const capacity, retrainEvery = 12, 12
	s, err := NewSliding(capacity, retrainEvery, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Naive reference: the pre-ring semantics.
	var ref []*dataset.Query
	refSince, refRetrains := 0, 0
	for step, q := range ds.Queries[:150] {
		if err := s.Observe(q); err != nil {
			t.Fatalf("observe %d: %v", step, err)
		}
		if len(ref) == capacity {
			copy(ref, ref[1:])
			ref[len(ref)-1] = q
		} else {
			ref = append(ref, q)
		}
		refSince++
		if refSince >= retrainEvery && len(ref) >= 5 {
			refSince = 0
			refRetrains++
		}
		w := s.Window()
		if len(w) != len(ref) {
			t.Fatalf("step %d: window size %d, reference %d", step, len(w), len(ref))
		}
		for i := range ref {
			if w[i] != ref[i] {
				t.Fatalf("step %d: window[%d] = query %d, reference query %d", step, i, w[i].ID, ref[i].ID)
			}
		}
		if s.Retrains() != refRetrains {
			t.Fatalf("step %d: retrains %d, reference %d", step, s.Retrains(), refRetrains)
		}
	}
	// The trained model must see the window oldest→newest; its size is the
	// window size at the last retrain.
	if !s.Ready() || s.Current().N() != capacity {
		t.Fatalf("model N = %d, want %d", s.Current().N(), capacity)
	}
}

func TestSlidingAdaptsToRecentWorkload(t *testing.T) {
	// After the window slides entirely past an early workload phase, the
	// model must reflect the recent phase: predictions for a recent-phase
	// query should use recent neighbors.
	ds := pool(t)
	byCat := map[workload.Category][]int{}
	for i, q := range ds.Queries {
		byCat[q.Category] = append(byCat[q.Category], i)
	}
	s, err := NewSliding(80, 40, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range ds.Queries[:300] {
		if err := s.Observe(q); err != nil {
			t.Fatal(err)
		}
	}
	if !s.Ready() {
		t.Fatal("not ready")
	}
	// The trained model's size equals the window, not the full history.
	if s.Current().N() != 80 {
		t.Errorf("model N = %d, want 80", s.Current().N())
	}
}

func TestCrossValidateTauFrac(t *testing.T) {
	ds := pool(t)
	train := ds.Queries[:150]
	best, scores, err := CrossValidateTauFrac(train, []float64{0.05, 0.1, 0.4}, 3, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != 3 {
		t.Fatalf("scores = %v", scores)
	}
	found := false
	bestScore := 0.0
	for i, f := range []float64{0.05, 0.1, 0.4} {
		if f == best {
			found = true
			bestScore = scores[i]
		}
		if scores[i] < 0 || scores[i] > 1 {
			t.Errorf("score %d out of range: %v", i, scores[i])
		}
	}
	if !found {
		t.Fatalf("best frac %v not among candidates", best)
	}
	for _, s := range scores {
		if s > bestScore {
			t.Error("best fraction does not have the best score")
		}
	}
}

func TestCrossValidateTauFracErrors(t *testing.T) {
	ds := pool(t)
	train := ds.Queries[:60]
	if _, _, err := CrossValidateTauFrac(train, nil, 3, DefaultOptions()); err == nil {
		t.Error("no candidates accepted")
	}
	if _, _, err := CrossValidateTauFrac(train, []float64{0.1}, 1, DefaultOptions()); err == nil {
		t.Error("single fold accepted")
	}
	if _, _, err := CrossValidateTauFrac(train[:8], []float64{0.1}, 3, DefaultOptions()); err == nil {
		t.Error("too-small training set accepted")
	}
	if _, _, err := CrossValidateTauFrac(train, []float64{-1}, 3, DefaultOptions()); err == nil {
		t.Error("negative fraction accepted")
	}
}

// TestSlidingHugeObservedMetric: /v1/observe admits any finite metric, so a
// window can hold one SQL observed twice at elapsed_sec 1e308. Predicting that
// SQL combines the two copies, whose equal-weight sum overflows; the
// prediction must still be the finite mean.
func TestSlidingHugeObservedMetric(t *testing.T) {
	ds := pool(t)
	s, err := NewSliding(10, 6, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	huge := *ds.Queries[4]
	huge.Metrics.ElapsedSec = 1e308
	for _, q := range []*dataset.Query{ds.Queries[0], ds.Queries[1], ds.Queries[2], ds.Queries[3], &huge, &huge} {
		if err := s.Observe(q); err != nil {
			t.Fatal(err)
		}
	}
	pred, err := s.PredictQuery(&huge)
	if err != nil {
		t.Fatal(err)
	}
	if e := pred.Metrics.ElapsedSec; math.IsInf(e, 0) || math.IsNaN(e) || e < 1e307 {
		t.Fatalf("predicted elapsed_sec %v from two neighbours at 1e308, want their finite mean", e)
	}
	for _, v := range pred.Metrics.Vector() {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			t.Fatalf("prediction %+v is not finite", pred.Metrics)
		}
	}
}
