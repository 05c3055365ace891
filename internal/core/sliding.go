package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/dataset"
	"repro/internal/features"
	"repro/internal/kcca"
	"repro/internal/obs"
)

// Sliding-window metrics (visible in obs snapshots next to the predict
// latency histograms, so retrain cadence and window churn can be watched
// in production). The full-vs-incremental split of retrains is counted by
// the kcca layer (kcca.retrain.full / kcca.retrain.incremental).
var (
	slidingObserved = obs.GetCounter("core.sliding.observed")
	slidingEvicted  = obs.GetCounter("core.sliding.evicted")
	slidingRetrains = obs.GetCounter("core.sliding.retrains")
)

// SlidingPredictor maintains a bounded window of the most recently
// executed queries and periodically retrains the predictor from it — the
// paper's Sec. VII-C.4 enhancement: "maintain a sliding training set of
// data with a larger emphasis on more recently executed queries", making
// the model adapt to workload drift without the cubic cost of retraining
// after every query.
//
// Two retrain paths exist. The incremental path (Options.Incremental, on by
// default) keeps maintained kernel matrices keyed to the window's ring
// slots: each observation patches one kernel row/column in O(N·d), and a
// retrain never rebuilds a kernel at a frozen scale — it centers and solves
// the maintained matrices in retained scratch buffers (kcca.Incremental),
// bit for bit what a full training on the same window at those scales
// computes. The full path trains from scratch on a window snapshot taken under the lock, with
// the actual training running OUTSIDE the lock so concurrent
// PredictQuery/Observe calls never stall behind an O(N³) solve. The
// incremental path falls back to the full path whenever kcca's τ-drift guard
// fires or the window is still growing — so correctness never depends on
// the incremental machinery.
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
	// the newest is size-1 positions after it, modulo capacity. Ring slot i
	// is also row i of the incremental trainer's maintained kernel state
	// (both training paths train in slot order, so model rows, metric rows,
	// and kernel rows all share one indexing).
	buf        []*dataset.Query
	head, size int

	sinceTrain int
	// version counts window mutations; a full train snapshotted at version
	// v only installs its maintained kernel seed if the window is still at
	// v when it finishes (the model itself is still published either way —
	// it is the freshest completed training).
	version uint64
	// inc is the incremental KCCA retrainer, nil when Options.Incremental
	// is off or TwoStep forces full trainings.
	inc *kcca.Incremental
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
	opt = normalizeOptions(opt)
	s := &SlidingPredictor{
		opt:          opt,
		capacity:     capacity,
		retrainEvery: retrainEvery,
		buf:          make([]*dataset.Query, capacity),
	}
	if opt.Incremental && !opt.TwoStep {
		s.inc = kcca.NewIncremental(opt.KCCA, capacity)
	}
	return s, nil
}

// Observe records one executed query (with measured metrics) into the
// window, evicting the oldest entry when full, and retrains when due.
// Eviction is O(1); with incremental retraining on, the observation also
// patches the maintained kernel matrices in O(N·d).
func (s *SlidingPredictor) Observe(q *dataset.Query) error {
	slidingObserved.Inc()
	s.mu.Lock()
	var slot int
	if s.size == s.capacity {
		// Overwrite the oldest entry; the next-oldest becomes the head.
		slot = s.head
		s.buf[s.head] = q
		s.head = (s.head + 1) % s.capacity
		slidingEvicted.Inc()
	} else {
		slot = (s.head + s.size) % s.capacity
		s.buf[slot] = q
		s.size++
	}
	s.version++
	s.syncIncremental(slot, q)
	s.sinceTrain++
	due := s.sinceTrain >= s.retrainEvery && s.size >= 5
	s.mu.Unlock()
	if due {
		return s.Retrain()
	}
	return nil
}

// syncIncremental mirrors the window mutation at slot into the maintained
// kernel state (mu held). A query whose features cannot be extracted poisons
// the maintained state; the next retrain then takes the full path, which
// reports the error through the usual training channel.
func (s *SlidingPredictor) syncIncremental(slot int, q *dataset.Query) {
	if s.inc == nil {
		return
	}
	f, err := queryFeature(q, s.opt.Features)
	if err != nil {
		s.inc.Invalidate()
		return
	}
	y := features.PerfKernelVector(q.Metrics)
	if slot < s.inc.N() {
		s.inc.Replace(slot, f, y)
	} else {
		s.inc.Append(f, y)
	}
}

// Retrain rebuilds the predictor from the current window: incrementally
// when the maintained kernel state can serve (steady-state slides at frozen
// τ), otherwise with a full training on a window snapshot, run outside the
// lock so serving and observing continue during the kernel rebuild and
// solve.
func (s *SlidingPredictor) Retrain() error {
	s.mu.Lock()
	if s.size < 5 {
		n := s.size
		s.mu.Unlock()
		return fmt.Errorf("%w: have %d, need at least 5", ErrEmptyWindow, n)
	}

	if s.inc != nil && !s.inc.NeedsFull() {
		// Incremental retrain: runs under the lock (an eigensolve on the
		// maintained kernels; predictions don't block — they read the atomic
		// pointer).
		model, err := s.inc.Retrain()
		if err == nil {
			_, _, rawRows, cats, ferr := extractFeatures(s.slotWindow(), s.opt.Features)
			if ferr != nil {
				s.mu.Unlock()
				return ferr
			}
			s.finishLocked(newPredictor(model, rawRows, cats, s.opt))
			s.mu.Unlock()
			return nil
		}
		if !errors.Is(err, kcca.ErrNeedFull) {
			s.mu.Unlock()
			return err
		}
	}

	// Full path: snapshot the window under the lock, train outside it.
	qs := s.slotWindow()
	version := s.version
	s.mu.Unlock()

	p, seed, err := s.trainFull(qs)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if s.inc != nil && seed != nil {
		if s.version == version {
			s.inc.Install(seed)
		} else {
			// The window moved while training ran: the seed's kernel state
			// no longer matches the live window, so the next retrain must
			// go full again. The model below is still the freshest
			// completed training and is published regardless.
			s.inc.Invalidate()
		}
	}
	s.finishLocked(p)
	s.mu.Unlock()
	return nil
}

// finishLocked publishes a freshly trained predictor (mu held). Publishing
// swaps the model generation, which retires the previous generation's
// prediction cache wholesale.
func (s *SlidingPredictor) finishLocked(p *Predictor) {
	s.current.Store(p)
	s.sinceTrain = 0
	s.retrains++
	slidingRetrains.Inc()
}

// trainFull trains from scratch on a window snapshot. With incremental
// retraining enabled it routes through kcca's TrainFull — bit-identical to
// kcca.Train, plus a maintained-kernel seed for subsequent incremental
// retrains; otherwise (or for TwoStep) it is exactly core.Train.
func (s *SlidingPredictor) trainFull(qs []*dataset.Query) (*Predictor, *kcca.Seed, error) {
	if s.inc == nil {
		p, err := Train(qs, s.opt)
		return p, nil, err
	}
	x, y, rawRows, cats, err := extractFeatures(qs, s.opt.Features)
	if err != nil {
		return nil, nil, err
	}
	model, seed, err := s.inc.TrainFull(x, y)
	if err != nil {
		return nil, nil, fmt.Errorf("core: KCCA training: %w", err)
	}
	return newPredictor(model, rawRows, cats, s.opt), seed, nil
}

// slotWindow returns the retained queries in ring-slot order (mu held):
// buf[0..size-1]. During the grow phase this equals observation order; once
// the ring wraps it is a rotation of it. Both training paths consume this
// order so model rows stay aligned with the maintained kernel rows. The
// order is part of the model: a row permutation leaves KCCA's projections
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
