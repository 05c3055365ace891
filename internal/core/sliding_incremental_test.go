package core

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/features"
	"repro/internal/obs"
)

// kccaFull / kccaInc / kccaIter mirror the kcca layer's retrain-path
// counters; the tests below assert on their deltas (the counters are
// process-global).
var (
	kccaFull = obs.GetCounter("kcca.retrain.full")
	kccaInc  = obs.GetCounter("kcca.retrain.incremental")
	kccaIter = obs.GetCounter("kcca.retrain.solver.iterative")
)

// TestSlidingIncrementalMatchesFull is the core-level equivalence test for
// the incremental retrain path: every time the sliding predictor serves a
// retrain from its maintained kernels, its predictions must match a
// from-scratch core.Train on the identical window — in ring-slot order, the
// order the daemon trains in, and at the same frozen kernel scales (the
// τ-drift guard separately bounds how far those may sit from fresh
// heuristics). Where the dense solver served the retrain the match is bit
// for bit; where the iteration did, within the documented 1e-6 relative
// tolerance. Each side of kcca's solver rule runs its own window shape.
// When the guard fires, the sliding predictor runs the full path, which is
// bit-identical to core.Train by construction (kcca.TrainFull ≡ kcca.Train).
func TestSlidingIncrementalMatchesFull(t *testing.T) {
	for _, sh := range []struct {
		name                  string
		capacity, every, rank int
		observes              int
		iterative             bool
	}{
		{name: "dense", capacity: 120, every: 20, observes: 400},
		// The pool's 480 queries cycle through a 450-slot ring, so the
		// window keeps changing; at rank 3 the iteration converges in ~33
		// steps of its 54-step budget.
		{name: "iterative", capacity: 450, every: 50, rank: 3, observes: 650, iterative: true},
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
				incBefore, iterBefore := kccaInc.Value(), kccaIter.Value()
				if err := s.Observe(ds.Queries[i%len(ds.Queries)]); err != nil {
					t.Fatalf("observe %d: %v", i, err)
				}
				if s.Retrains() == before || kccaInc.Value() == incBefore {
					continue // no retrain, or it went down the full path
				}
				iterated := kccaIter.Value() != iterBefore
				if iterated == sh.iterative {
					served++
				}
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
					if !iterated {
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("observe %d, probe %d: dense-served retrain predicts %+v, full train %+v",
								i, pi, *got, *want)
						}
						continue
					}
					gv := features.PerfRawVector(got.Metrics)
					wv := features.PerfRawVector(want.Metrics)
					for k := range wv {
						scale := math.Abs(wv[k])
						if scale < 1 {
							scale = 1
						}
						if rel := math.Abs(gv[k]-wv[k]) / scale; rel > 1e-6 {
							t.Fatalf("observe %d, probe %d, metric %d: incremental %v vs full %v (rel %v)",
								i, pi, k, gv[k], wv[k], rel)
						}
					}
				}
			}
			// The steady-state slides must actually exercise this side of
			// the rule — otherwise the test verified nothing.
			if served < 2 {
				t.Fatalf("only %d retrains over %d observations were served incrementally by the %s solver",
					served, sh.observes, sh.name)
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
