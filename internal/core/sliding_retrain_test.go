package core

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/obs"
)

// kccaFull counts completed sliding retrains (process-global: the tests
// below assert on its deltas).
var kccaFull = obs.GetCounter("kcca.retrain.full")

// sameTrained reports whether got and want hold the same trained state, bit
// for bit: the KCCA model, the raw metrics, categories and confidence
// scales, and every two-step type model.
func sameTrained(got, want *Predictor) bool {
	if !reflect.DeepEqual(got.model, want.model) || !reflect.DeepEqual(got.perfRaw, want.perfRaw) ||
		!reflect.DeepEqual(got.cats, want.cats) || got.opt != want.opt ||
		math.Float64bits(got.confScale) != math.Float64bits(want.confScale) ||
		math.Float64bits(got.kernelScale) != math.Float64bits(want.kernelScale) ||
		len(got.sub) != len(want.sub) {
		return false
	}
	for c, sp := range want.sub {
		if g, ok := got.sub[c]; !ok || !sameTrained(g, sp) {
			return false
		}
	}
	return true
}

// window returns s's slot-order window.
func window(s *SlidingPredictor) []*dataset.Query {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.slotWindow()
}

// TestSlidingRetrainIsTrainOnWindow: every retrain publishes Train on its
// slot-order window, bit for bit, and nothing else — in every phase a window
// passes through. The steady-state and wrapped-ring cases are where
// retrains once reused kernel scales frozen by an earlier retrain.
func TestSlidingRetrainIsTrainOnWindow(t *testing.T) {
	for _, tc := range []struct {
		name                  string
		capacity, every, rank int
		twoStep               bool
		features              FeatureKind
		observes              int
	}{
		// The window never fills: every retrain sees more rows than the last.
		{name: "grow phase", capacity: 120, every: 20, observes: 119},
		// The last retrain is the first on a full window.
		{name: "first full window", capacity: 60, every: 15, observes: 60},
		// Fourteen of the twenty retrains slide a full 120-row window.
		{name: "steady state", capacity: 120, every: 20, observes: 400},
		// The pool's 480 queries cycle through a 250-slot ring, so the ring
		// wraps and the window keeps changing; rank 3 cuts the kept block
		// far below the window.
		{name: "wrapped ring", capacity: 250, every: 50, rank: 3, observes: 600},
		{name: "TwoStep", capacity: 60, every: 15, twoStep: true, observes: 120},
		{name: "SQL features", capacity: 60, every: 15, features: SQLFeatures, observes: 120},
	} {
		t.Run(tc.name, func(t *testing.T) {
			qs := pool(t).Queries
			opt := DefaultOptions()
			opt.KCCA.Rank = tc.rank
			opt.TwoStep = tc.twoStep
			opt.Features = tc.features
			s, err := NewSliding(tc.capacity, tc.every, opt)
			if err != nil {
				t.Fatal(err)
			}
			checked := 0
			for i := 0; i < tc.observes; i++ {
				before := s.Retrains()
				if err := s.Observe(qs[i%len(qs)]); err != nil {
					t.Fatalf("observe %d: %v", i, err)
				}
				if s.Retrains() == before {
					continue
				}
				want, err := Train(window(s), s.opt)
				if err != nil {
					t.Fatal(err)
				}
				if !sameTrained(s.Current(), want) {
					t.Fatalf("the retrain at observation %d is not Train on its slot-order window", i+1)
				}
				checked++
			}
			if want := tc.observes / tc.every; checked != want {
				t.Fatalf("checked %d retrains, the schedule has %d", checked, want)
			}
			if tc.twoStep && len(s.Current().sub) == 0 {
				t.Fatal("the two-step model has no type models")
			}
		})
	}
}

// TestSlidingRetrainCounters: kcca.retrain.full advances by exactly one per
// completed retrain, on a growing window and a sliding one alike, and once
// per two-step retrain however many type models it trains.
func TestSlidingRetrainCounters(t *testing.T) {
	for _, twoStep := range []bool{false, true} {
		name := "plain"
		if twoStep {
			name = "TwoStep"
		}
		t.Run(name, func(t *testing.T) {
			opt := DefaultOptions()
			opt.TwoStep = twoStep
			s, err := NewSliding(100, 25, opt)
			if err != nil {
				t.Fatal(err)
			}
			for i, q := range pool(t).Queries[:350] {
				before, full := s.Retrains(), kccaFull.Value()
				if err := s.Observe(q); err != nil {
					t.Fatalf("observe %d: %v", i, err)
				}
				if got, want := kccaFull.Value()-full, int64(s.Retrains()-before); got != want {
					t.Fatalf("observe %d: kcca.retrain.full moved by %d over %d retrains", i, got, want)
				}
			}
			if s.Retrains() != 350/25 {
				t.Fatalf("%d retrains, want %d", s.Retrains(), 350/25)
			}
			before, full := s.Retrains(), kccaFull.Value()
			if err := s.Retrain(); err != nil {
				t.Fatal(err)
			}
			if s.Retrains() != before+1 || kccaFull.Value() != full+1 {
				t.Fatal("an explicit Retrain did not count once")
			}
		})
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
