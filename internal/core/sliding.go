package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/dataset"
	"repro/internal/kcca"
	"repro/internal/obs"
)

// Sliding-window metrics (visible in obs snapshots next to the predict
// latency histograms, so retrain cadence and window churn can be watched
// in production). The retrain counters keep the names they had when a
// retrain at frozen scales was served from incrementally maintained kernels.
var (
	slidingObserved = obs.GetCounter("core.sliding.observed")
	slidingEvicted  = obs.GetCounter("core.sliding.evicted")
	slidingRetrains = obs.GetCounter("core.sliding.retrains")
	// retrainFrozen counts retrains at frozen kernel scales, retrainFresh
	// those that computed them anew (window growth, τ-drift, TwoStep).
	retrainFrozen = obs.GetCounter("kcca.retrain.incremental")
	retrainFresh  = obs.GetCounter("kcca.retrain.full")
)

// SlidingPredictor maintains a bounded window of the most recently
// executed queries and periodically retrains the predictor from it — the
// paper's Sec. VII-C.4 enhancement: "maintain a sliding training set of
// data with a larger emphasis on more recently executed queries", making
// the model adapt to workload drift without the cubic cost of retraining
// after every query.
//
// A retrain is kcca.Train on a snapshot of the window, taken under the lock
// and trained outside it, so concurrent PredictQuery/Observe calls never
// stall behind the O(N³) solve. Only the kernel scales carry state from one
// retrain to the next: once the window is full they stay frozen until the
// scale heuristic drifts (see train), so a steady stream of similar
// queries does not move the kernel under the model.
//
// SlidingPredictor is safe for concurrent use: Observe/Retrain serialize on
// an internal mutex, while PredictQuery/Current read the published model
// through an atomic pointer and never block on retraining.
type SlidingPredictor struct {
	opt Options
	// capacity bounds the training window.
	capacity int
	// retrainEvery is the number of newly observed queries between
	// retrainings.
	retrainEvery int

	// mu guards the window state below. The published model is NOT behind
	// mu — readers load it atomically.
	mu sync.Mutex
	// The window is a ring buffer: once full, each observation overwrites
	// the oldest entry in place. buf[head] is the oldest retained query;
	// the newest is size-1 positions after it, modulo capacity. Retrains
	// train in slot order (see slotWindow).
	buf        []*dataset.Query
	head, size int

	sinceTrain int
	// version counts window mutations; a retrain that computed fresh scales
	// on a snapshot taken at version v only freezes them if the window is
	// still at v when it finishes (the model itself is published either
	// way — it is the freshest completed training).
	version uint64
	// frozen is the τ policy's state, nil until a retrain freezes scales.
	frozen *frozenTau
	// retrains counts completed trainings (visible for tests/metrics).
	retrains int

	current atomic.Pointer[Predictor]
}

// frozenTau is the kernel-scale pair a retrain froze and the window size it
// froze them at. It is also the snapshot wire form (exported fields).
type frozenTau struct {
	X, Y float64
	N    int
}

// NewSliding returns a sliding predictor that keeps up to capacity recent
// queries and retrains after every retrainEvery observations. Training
// first happens once the window holds at least max(retrainEvery, 5)
// queries.
func NewSliding(capacity, retrainEvery int, opt Options) (*SlidingPredictor, error) {
	if capacity < 5 {
		return nil, errors.New("core: sliding window capacity must be at least 5")
	}
	if retrainEvery < 1 {
		return nil, errors.New("core: retrain interval must be positive")
	}
	if retrainEvery > capacity {
		return nil, fmt.Errorf("core: retrain interval %d exceeds capacity %d", retrainEvery, capacity)
	}
	return &SlidingPredictor{
		opt:          normalizeOptions(opt),
		capacity:     capacity,
		retrainEvery: retrainEvery,
		buf:          make([]*dataset.Query, capacity),
	}, nil
}

// Observe records one executed query (with measured metrics) into the
// window, evicting the oldest entry when full, and retrains when due.
func (s *SlidingPredictor) Observe(q *dataset.Query) error {
	slidingObserved.Inc()
	s.mu.Lock()
	if s.size == s.capacity {
		// Overwrite the oldest entry; the next-oldest becomes the head.
		s.buf[s.head] = q
		s.head = (s.head + 1) % s.capacity
		slidingEvicted.Inc()
	} else {
		s.buf[(s.head+s.size)%s.capacity] = q
		s.size++
	}
	s.version++
	s.sinceTrain++
	due := s.sinceTrain >= s.retrainEvery && s.size >= 5
	s.mu.Unlock()
	if due {
		return s.Retrain()
	}
	return nil
}

// Retrain rebuilds the predictor from the current window: a snapshot taken
// under the lock, trained outside it, published under it.
func (s *SlidingPredictor) Retrain() error {
	qs, version, frozen, err := s.snapshot()
	if err != nil {
		return err
	}
	p, fresh, err := s.train(qs, frozen)
	if err != nil {
		return err
	}
	s.publish(p, fresh, version)
	return nil
}

// snapshot returns the slot-order window, its version and the frozen
// scales, or ErrEmptyWindow below five queries.
func (s *SlidingPredictor) snapshot() ([]*dataset.Query, uint64, *frozenTau, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.size < 5 {
		return nil, 0, nil, fmt.Errorf("%w: have %d, need at least 5", ErrEmptyWindow, s.size)
	}
	return s.slotWindow(), s.version, s.frozen, nil
}

// train is kcca.Train on the slot-order window qs at the scales the τ policy
// picks: the frozen ones while the window has the size they were frozen at
// and neither view's heuristic has drifted from them by more than
// TauDriftTol (pinned TauX/TauY never drift), fresh ones otherwise. It
// returns the fresh scales, nil when it reused the frozen ones. TwoStep is
// core.Train: its per-type sub-models take fresh scales every time, and
// none are frozen.
func (s *SlidingPredictor) train(qs []*dataset.Query, frozen *frozenTau) (*Predictor, *frozenTau, error) {
	if s.opt.TwoStep {
		p, err := Train(qs, s.opt)
		if err != nil {
			return nil, nil, err
		}
		retrainFresh.Inc()
		return p, nil, nil
	}
	x, y, rawRows, cats, err := extractFeatures(qs, s.opt.Features)
	if err != nil {
		return nil, nil, err
	}
	kopt := s.opt.KCCA
	tau := frozenTau{N: len(qs)}
	tau.X, tau.Y = kcca.Scales(x, y, kopt)
	tol := kopt.TauDriftTol
	if tol <= 0 {
		tol = 0.1
	}
	drifted := func(frozen, fresh float64) bool { return math.Abs(fresh-frozen) > tol*frozen }
	reuse := frozen != nil && frozen.N == tau.N && !drifted(frozen.X, tau.X) && !drifted(frozen.Y, tau.Y)
	if reuse {
		tau = *frozen
	}
	kopt.TauX, kopt.TauY = tau.X, tau.Y
	model, err := kcca.Train(x, y, kopt)
	if err != nil {
		return nil, nil, fmt.Errorf("core: KCCA training: %w", err)
	}
	p := newPredictor(model, rawRows, cats, s.opt)
	if reuse {
		retrainFrozen.Inc()
		return p, nil, nil
	}
	retrainFresh.Inc()
	return p, &tau, nil
}

// publish swaps p in as the next model generation, which retires the
// previous generation's prediction cache wholesale. Fresh scales are frozen
// only if they describe the live window: if it moved from version while
// they were computed, none are, and the next retrain computes anew.
func (s *SlidingPredictor) publish(p *Predictor, fresh *frozenTau, version uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if fresh != nil {
		s.frozen = nil
		if s.version == version {
			s.frozen = fresh
		}
	}
	s.current.Store(p)
	s.sinceTrain = 0
	s.retrains++
	slidingRetrains.Inc()
}

// slotWindow returns the retained queries in ring-slot order (mu held):
// buf[0..size-1]. During the grow phase this equals observation order; once
// the ring wraps it is a rotation of it. Retrains train in this order,
// which is part of the model: a row permutation leaves KCCA's projections
// unchanged up to rounding, but k-NN breaks distance ties (duplicate-feature
// rows) by row index, so a reference trained in another order — observation
// order, say — can predict differently on such ties.
func (s *SlidingPredictor) slotWindow() []*dataset.Query {
	out := make([]*dataset.Query, s.size)
	copy(out, s.buf[:s.size])
	return out
}

// Ready reports whether a model has been trained.
func (s *SlidingPredictor) Ready() bool { return s.current.Load() != nil }

// PredictQuery predicts with the most recently trained model. It never
// blocks on an in-flight retrain: the model is read through an atomic
// pointer, so predictions proceed against the previous generation until the
// new one is published.
func (s *SlidingPredictor) PredictQuery(q *dataset.Query) (*Prediction, error) {
	p := s.current.Load()
	if p == nil {
		return nil, fmt.Errorf("%w: sliding predictor has not observed enough queries", ErrNotTrained)
	}
	return p.PredictQuery(q)
}

// Current returns the most recently trained predictor, or nil before the
// first training. The serving layer publishes this into its hot-swap slot
// after each retrain.
func (s *SlidingPredictor) Current() *Predictor { return s.current.Load() }

// Window returns the retained queries in observation order, oldest first.
func (s *SlidingPredictor) Window() []*dataset.Query {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*dataset.Query, s.size)
	for i := 0; i < s.size; i++ {
		out[i] = s.buf[(s.head+i)%s.capacity]
	}
	return out
}

// WindowSize returns the number of queries currently held.
func (s *SlidingPredictor) WindowSize() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.size
}

// Retrains returns how many trainings have completed.
func (s *SlidingPredictor) Retrains() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.retrains
}
