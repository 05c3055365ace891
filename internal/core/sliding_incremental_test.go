package core

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/obs"
)

// kccaFull / kccaInc mirror the kcca layer's retrain-path counters; the
// tests below assert on their deltas (the counters are process-global).
var (
	kccaFull = obs.GetCounter("kcca.retrain.full")
	kccaInc  = obs.GetCounter("kcca.retrain.incremental")
)

// TestSlidingIncrementalMatchesFull is the core-level equivalence test for
// the incremental retrain path: every time the sliding predictor serves a
// retrain from its maintained kernels, its predictions must equal, bit for
// bit, those of a from-scratch core.Train on the identical window — in
// ring-slot order, the order the daemon trains in, and at the same frozen
// kernel scales (the τ-drift guard separately bounds how far those may sit
// from fresh heuristics). When the guard fires, the sliding predictor runs
// the full path, which is bit-identical to core.Train by construction
// (kcca.TrainFull ≡ kcca.Train). It runs one window at the automatic rank and
// one at an explicit small rank.
func TestSlidingIncrementalMatchesFull(t *testing.T) {
	for _, sh := range []struct {
		name                  string
		capacity, every, rank int
		observes              int
	}{
		{name: "auto-rank", capacity: 120, every: 20, observes: 400},
		// The pool's 480 queries cycle through a 250-slot ring, so the
		// window keeps changing; rank 3 cuts the kept block far below it.
		{name: "fixed-rank", capacity: 250, every: 50, rank: 3, observes: 600},
	} {
		t.Run(sh.name, func(t *testing.T) {
			ds := pool(t)
			opt := DefaultOptions()
			opt.KCCA.Rank = sh.rank
			s, err := NewSliding(sh.capacity, sh.every, opt)
			if err != nil {
				t.Fatal(err)
			}
			probes := ds.Queries[400:420]

			served := 0
			for i := 0; i < sh.observes; i++ {
				before := s.Retrains()
				incBefore := kccaInc.Value()
				if err := s.Observe(ds.Queries[i%len(ds.Queries)]); err != nil {
					t.Fatalf("observe %d: %v", i, err)
				}
				if s.Retrains() == before || kccaInc.Value() == incBefore {
					continue // no retrain, or it went down the full path
				}
				served++
				// Reference: a full training on the same slot-order window
				// with the kernel scales pinned to the frozen ones the
				// incremental path used.
				m := s.Current().Model()
				refOpt := opt
				refOpt.Incremental = false
				refOpt.KCCA.TauX, refOpt.KCCA.TauY = m.TauX, m.TauY
				s.mu.Lock()
				window := s.slotWindow()
				s.mu.Unlock()
				ref, err := Train(window, refOpt)
				if err != nil {
					t.Fatalf("observe %d: reference train: %v", i, err)
				}
				for pi, tq := range probes {
					got, err := s.PredictQuery(tq)
					if err != nil {
						t.Fatalf("observe %d: incremental predict: %v", i, err)
					}
					want, err := ref.PredictQuery(tq)
					if err != nil {
						t.Fatalf("observe %d: reference predict: %v", i, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("observe %d, probe %d: incremental retrain predicts %+v, full train %+v",
							i, pi, *got, *want)
					}
				}
			}
			// The steady-state slides must actually exercise the
			// incremental path — otherwise the test verified nothing.
			if served < 2 {
				t.Fatalf("only %d retrains over %d observations were served incrementally", served, sh.observes)
			}
		})
	}
}

// TestSlidingRetrainCounters asserts the full/incremental split via the
// kcca obs counters: the growing window forces full trains, the
// steady-state slides go incremental, and the sum accounts for every
// retrain the sliding predictor reports.
func TestSlidingRetrainCounters(t *testing.T) {
	ds := pool(t)
	fullBefore, incBefore := kccaFull.Value(), kccaInc.Value()
	s, err := NewSliding(100, 25, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range ds.Queries[:350] {
		if err := s.Observe(q); err != nil {
			t.Fatalf("observe %d: %v", i, err)
		}
	}
	full := kccaFull.Value() - fullBefore
	inc := kccaInc.Value() - incBefore
	if got := full + inc; got != int64(s.Retrains()) {
		t.Errorf("counters account for %d retrains (%d full + %d incremental), predictor reports %d",
			got, full, inc, s.Retrains())
	}
	if full < 1 {
		t.Error("expected at least one full training (the growing window cannot retrain incrementally)")
	}
	if inc < 1 {
		t.Error("expected at least one incremental retrain in steady state")
	}
}

// TestSlidingPredictsDuringRetrains is the race test for the
// lock-free serving contract: queries keep being answered (by the previous
// model generation) while observations drive retrains, with no data races
// (run under -race in CI next to the hot-swap suite) and no prediction ever
// failing once the first model exists.
func TestSlidingPredictsDuringRetrains(t *testing.T) {
	ds := pool(t)
	s, err := NewSliding(60, 15, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range ds.Queries[:60] {
		if err := s.Observe(q); err != nil {
			t.Fatal(err)
		}
	}
	if !s.Ready() {
		t.Fatal("not ready after priming")
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := ds.Queries[(w*37+i)%len(ds.Queries)]
				if _, err := s.PredictQuery(q); err != nil {
					t.Errorf("worker %d: predict: %v", w, err)
					return
				}
			}
		}(w)
	}
	for i, q := range ds.Queries[60:300] {
		if err := s.Observe(q); err != nil {
			t.Errorf("observe %d: %v", i, err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if s.Retrains() < 10 {
		t.Errorf("only %d retrains; the predictors were not racing anything", s.Retrains())
	}
}
