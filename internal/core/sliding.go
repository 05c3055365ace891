package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/dataset"
	"repro/internal/obs"
)

// Sliding-window metrics (visible in obs snapshots next to the predict
// latency histograms, so retrain cadence and window churn can be watched
// in production). Every completed retrain counts as kcca.retrain.full: the
// name dashboards and the benchmark's retrain accounting read.
var (
	slidingObserved = obs.GetCounter("core.sliding.observed")
	slidingEvicted  = obs.GetCounter("core.sliding.evicted")
	slidingRetrains = obs.GetCounter("kcca.retrain.full")
)

// SlidingPredictor maintains a bounded window of the most recently
// executed queries and periodically retrains the predictor from it — the
// paper's Sec. VII-C.4 enhancement: "maintain a sliding training set of
// data with a larger emphasis on more recently executed queries", making
// the model adapt to workload drift without the cubic cost of retraining
// after every query.
//
// A retrain is Train on a snapshot of the window, taken under the lock and
// trained outside it, so concurrent PredictQuery/Observe calls never stall
// behind the O(N³) solve. Nothing carries from one retrain to the next:
// each model generation is a function of its window alone, which is why a
// snapshot needs only the window to continue exactly.
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
	// retrains counts completed trainings (visible for tests/metrics).
	retrains int

	current atomic.Pointer[Predictor]
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
	s.sinceTrain++
	due := s.sinceTrain >= s.retrainEvery && s.size >= 5
	s.mu.Unlock()
	if due {
		return s.Retrain()
	}
	return nil
}

// Retrain rebuilds the predictor from the current window: Train on the
// slot-order window, taken under the lock and trained outside it, published
// under it.
func (s *SlidingPredictor) Retrain() error {
	qs, err := s.snapshot()
	if err != nil {
		return err
	}
	p, err := Train(qs, s.opt)
	if err != nil {
		return err
	}
	s.publish(p)
	return nil
}

// snapshot returns the slot-order window, or ErrEmptyWindow below five
// queries.
func (s *SlidingPredictor) snapshot() ([]*dataset.Query, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.size < 5 {
		return nil, fmt.Errorf("%w: have %d, need at least 5", ErrEmptyWindow, s.size)
	}
	return s.slotWindow(), nil
}

// publish swaps p in as the next model generation, which retires the
// previous generation's prediction cache wholesale.
func (s *SlidingPredictor) publish(p *Predictor) {
	s.mu.Lock()
	defer s.mu.Unlock()
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
