package core

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/frame"
	"repro/internal/kcca"
	"repro/internal/obs"
)

// kccaFull / kccaInc are the sliding predictor's retrain counters: retrains
// that computed fresh kernel scales and retrains at frozen ones. The tests
// below assert on their deltas (the counters are process-global).
var (
	kccaFull = obs.GetCounter("kcca.retrain.full")
	kccaInc  = obs.GetCounter("kcca.retrain.incremental")
)

// requireTrainOnWindow fails unless the published model is, bit for bit,
// kcca.Train on window (slot order) at the kernel scales the model used, and
// returns those scales.
func requireTrainOnWindow(t *testing.T, s *SlidingPredictor, window []*dataset.Query) (tauX, tauY float64) {
	t.Helper()
	x, y, _, _, err := extractFeatures(window, s.opt.Features)
	if err != nil {
		t.Fatal(err)
	}
	got := s.Current().Model()
	kopt := s.opt.KCCA
	kopt.TauX, kopt.TauY = got.TauX, got.TauY
	want, err := kcca.Train(x, y, kopt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("the retrain is not kcca.Train on its slot-order window at the scales it used")
	}
	return got.TauX, got.TauY
}

// window returns s's slot-order window.
func window(s *SlidingPredictor) []*dataset.Query {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.slotWindow()
}

// withLegacyIncState rewrites s's snapshot into the format that carried the
// incremental retrainer's state: the frozen scales move into IncState, with
// the given staleness, and the predictor is restored from it.
func withLegacyIncState(t *testing.T, s *SlidingPredictor, stale bool) *SlidingPredictor {
	t.Helper()
	var snap bytes.Buffer
	if err := s.SaveState(&snap); err != nil {
		t.Fatal(err)
	}
	payload, err := readFrame(&snap, stateMagic)
	if err != nil {
		t.Fatal(err)
	}
	var wire slidingWire
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	f := wire.Frozen
	if f == nil || f.N != len(wire.Slots) {
		t.Fatal("the predictor had no scales frozen for its window")
	}
	wire.Frozen = nil
	wire.IncState = &legacyIncState{Stale: stale}
	wire.IncState.MX = &struct {
		Tau    float64
		Synced bool
	}{f.X, true}
	wire.IncState.MY = &struct {
		Tau    float64
		Synced bool
	}{f.Y, true}
	var enc bytes.Buffer
	if err := gob.NewEncoder(&enc).Encode(&wire); err != nil {
		t.Fatal(err)
	}
	var framed bytes.Buffer
	if err := frame.Write(&framed, stateMagic, ModelFormatVersion, enc.Bytes()); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreSliding(&framed, s.capacity, s.retrainEvery, s.opt, legacyPlan())
	if err != nil {
		t.Fatal(err)
	}
	return restored
}

// TestSlidingTauPolicy is the sliding retrain's one policy table: in every
// case the retrain is kcca.Train on the slot-order window at the scales it
// used, and the case decides which scales those are — the frozen ones, or
// fresh heuristics — and which counter moves.
func TestSlidingTauPolicy(t *testing.T) {
	const capacity = 60
	qs := pool(t).Queries
	observe := func(t *testing.T, s *SlidingPredictor, from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if err := s.Observe(qs[i]); err != nil {
				t.Fatalf("observe %d: %v", i, err)
			}
		}
	}
	retrain := func(t *testing.T, s *SlidingPredictor) []*dataset.Query {
		t.Helper()
		if err := s.Retrain(); err != nil {
			t.Fatal(err)
		}
		return window(s)
	}
	for _, tc := range []struct {
		name  string
		every int // 15 when zero
		opt   func(*Options)
		// prep leaves a predictor one retrain before the one under test.
		prep func(t *testing.T, s *SlidingPredictor) *SlidingPredictor
		// act runs the retrain under test (Retrain when nil) and returns
		// the window it trained on.
		act func(t *testing.T, s *SlidingPredictor) []*dataset.Query
		// frozen: the retrain keeps the scales frozen before it.
		frozen bool
		// after checks the state the retrain leaves.
		after func(t *testing.T, s *SlidingPredictor)
	}{
		{
			// Scales frozen at 30 rows do not serve 44.
			name: "grow phase recomputes",
			prep: func(t *testing.T, s *SlidingPredictor) *SlidingPredictor {
				observe(t, s, 0, 44)
				if s.frozen == nil || s.frozen.N != 30 {
					t.Fatalf("frozen %+v after the retrain at 30, want scales at 30 rows", s.frozen)
				}
				return s
			},
			after: func(t *testing.T, s *SlidingPredictor) {
				if s.frozen == nil || s.frozen.N != 44 {
					t.Fatalf("frozen %+v, want the fresh scales at 44 rows", s.frozen)
				}
			},
		},
		{
			name:   "full window without drift keeps the frozen scales",
			opt:    func(o *Options) { o.KCCA.TauDriftTol = 0.5 },
			prep:   func(t *testing.T, s *SlidingPredictor) *SlidingPredictor { observe(t, s, 0, 74); return s },
			frozen: true,
		},
		{
			// The same window as above: 14 rows slid since the scales froze
			// at 60 move the heuristic, just not by half.
			name: "heuristic moved past TauDriftTol recomputes",
			opt:  func(o *Options) { o.KCCA.TauDriftTol = 1e-9 },
			prep: func(t *testing.T, s *SlidingPredictor) *SlidingPredictor { observe(t, s, 0, 74); return s },
		},
		{
			name: "pinned scales never drift",
			opt: func(o *Options) {
				o.KCCA.TauX, o.KCCA.TauY = 40, 3
				o.KCCA.TauDriftTol = 1e-9
			},
			prep:   func(t *testing.T, s *SlidingPredictor) *SlidingPredictor { observe(t, s, 0, 74); return s },
			frozen: true,
			after: func(t *testing.T, s *SlidingPredictor) {
				if m := s.Current().Model(); m.TauX != 40 || m.TauY != 3 {
					t.Fatalf("trained at (%v, %v), pinned (40, 3)", m.TauX, m.TauY)
				}
			},
		},
		{
			name: "TwoStep is core.Train",
			opt:  func(o *Options) { o.TwoStep = true; o.KCCA.TauDriftTol = 0.5 },
			prep: func(t *testing.T, s *SlidingPredictor) *SlidingPredictor { observe(t, s, 0, 74); return s },
			after: func(t *testing.T, s *SlidingPredictor) {
				if s.frozen != nil {
					t.Fatalf("TwoStep froze %+v", s.frozen)
				}
				ref, err := Train(window(s), s.opt)
				if err != nil {
					t.Fatal(err)
				}
				got := s.Current()
				if len(got.sub) != len(ref.sub) {
					t.Fatalf("%d type models, core.Train builds %d", len(got.sub), len(ref.sub))
				}
				for c, sp := range ref.sub {
					if !reflect.DeepEqual(got.sub[c].Model(), sp.Model()) {
						t.Fatalf("type model %v differs from core.Train's", c)
					}
				}
			},
		},
		{
			// Scales frozen at 50 rows, window full at 60: the retrain under
			// test recomputes, and an observation lands while it trains. Its
			// scales describe a window that is gone, so none are frozen and
			// the next retrain — which would otherwise keep them — recomputes.
			name:  "window moved during a recomputing train",
			every: 25,
			opt:   func(o *Options) { o.KCCA.TauDriftTol = 0.5 },
			prep:  func(t *testing.T, s *SlidingPredictor) *SlidingPredictor { observe(t, s, 0, 70); return s },
			act: func(t *testing.T, s *SlidingPredictor) []*dataset.Query {
				snap, version, frozen, err := s.snapshot()
				if err != nil {
					t.Fatal(err)
				}
				observe(t, s, 70, 71)
				p, fresh, err := s.train(snap, frozen)
				if err != nil {
					t.Fatal(err)
				}
				s.publish(p, fresh, version)
				return snap
			},
			after: func(t *testing.T, s *SlidingPredictor) {
				if s.frozen != nil {
					t.Fatalf("froze %+v for a window that moved", s.frozen)
				}
				full, inc := kccaFull.Value(), kccaInc.Value()
				requireTrainOnWindow(t, s, retrain(t, s))
				if kccaFull.Value()-full != 1 || kccaInc.Value() != inc {
					t.Fatal("the retrain after a moved window kept scales")
				}
				// With the window still, those scales are frozen and kept.
				requireTrainOnWindow(t, s, retrain(t, s))
				if kccaInc.Value()-inc != 1 {
					t.Fatal("a still window's fresh scales were not kept")
				}
			},
		},
		{
			name: "legacy stale snapshot recomputes",
			opt:  func(o *Options) { o.KCCA.TauDriftTol = 0.5 },
			prep: func(t *testing.T, s *SlidingPredictor) *SlidingPredictor {
				observe(t, s, 0, 74)
				return withLegacyIncState(t, s, true)
			},
		},
		{
			name: "legacy synced snapshot keeps its scales",
			opt:  func(o *Options) { o.KCCA.TauDriftTol = 0.5 },
			prep: func(t *testing.T, s *SlidingPredictor) *SlidingPredictor {
				observe(t, s, 0, 74)
				return withLegacyIncState(t, s, false)
			},
			frozen: true,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := DefaultOptions()
			if tc.opt != nil {
				tc.opt(&opt)
			}
			every := tc.every
			if every == 0 {
				every = 15
			}
			s, err := NewSliding(capacity, every, opt)
			if err != nil {
				t.Fatal(err)
			}
			s = tc.prep(t, s)
			var before frozenTau
			if s.frozen != nil {
				before = *s.frozen
			}
			act := tc.act
			if act == nil {
				act = retrain
			}
			full, inc := kccaFull.Value(), kccaInc.Value()
			trained := act(t, s)
			tauX, tauY := requireTrainOnWindow(t, s, trained)

			if got := [2]int64{kccaFull.Value() - full, kccaInc.Value() - inc}; tc.frozen && got != [2]int64{0, 1} ||
				!tc.frozen && got != [2]int64{1, 0} {
				t.Fatalf("counters moved full +%d, incremental +%d; frozen scales kept: %v", got[0], got[1], tc.frozen)
			}
			wantX, wantY := before.X, before.Y
			if !tc.frozen {
				x, y, _, _, err := extractFeatures(trained, s.opt.Features)
				if err != nil {
					t.Fatal(err)
				}
				wantX, wantY = kcca.Scales(x, y, s.opt.KCCA)
			}
			if tauX != wantX || tauY != wantY {
				t.Fatalf("trained at (%v, %v), want (%v, %v)", tauX, tauY, wantX, wantY)
			}
			if tc.after != nil {
				tc.after(t, s)
			}
		})
	}
}

// TestSlidingRetrainIsTrainOnWindow drives long streams through two window
// shapes and holds every retrain — fresh scales or frozen — to kcca.Train on
// its slot-order window at the scales it used. One window runs at the
// automatic rank, one at an explicit small rank.
func TestSlidingRetrainIsTrainOnWindow(t *testing.T) {
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
			frozen := 0
			for i := 0; i < sh.observes; i++ {
				before, incBefore := s.Retrains(), kccaInc.Value()
				if err := s.Observe(ds.Queries[i%len(ds.Queries)]); err != nil {
					t.Fatalf("observe %d: %v", i, err)
				}
				if s.Retrains() == before {
					continue
				}
				requireTrainOnWindow(t, s, window(s))
				if kccaInc.Value() != incBefore {
					frozen++
				}
			}
			// The steady-state slides must keep frozen scales at least
			// twice — otherwise only the fresh path was checked.
			if frozen < 2 {
				t.Fatalf("only %d retrains over %d observations kept frozen scales", frozen, sh.observes)
			}
		})
	}
}

// TestSlidingRetrainCounters: the growing window computes fresh scales,
// steady-state slides keep frozen ones, and the two counters account for
// every retrain the sliding predictor reports.
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
		t.Errorf("counters account for %d retrains (%d fresh + %d frozen), predictor reports %d",
			got, full, inc, s.Retrains())
	}
	if full < 1 {
		t.Error("expected at least one retrain at fresh scales (the growing window cannot keep them)")
	}
	if inc < 1 {
		t.Error("expected at least one retrain at frozen scales in steady state")
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
