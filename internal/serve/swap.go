package serve

import (
	"sync/atomic"

	"repro/internal/coalesce"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/model"
)

// servedModel is one immutable model plus its generation tag. A trained
// Model is never mutated after training returns, so readers may use it
// lock-free for as long as they hold the pointer; a hot swap only replaces
// which pointer new readers pick up. For the KCCA kind the generation also
// scopes the predictor's internal prediction cache: each Predictor carries
// its own, so swapping generations retires every cached prediction of the
// previous model wholesale — results tagged with one generation were
// computed against exactly that model and its cache, never a stale one.
type servedModel struct {
	model model.Model
	gen   int64
}

// pred returns the underlying core predictor for the KCCA kind, or nil for
// any other kind (KCCA-specific introspection only).
func (m *servedModel) pred() *core.Predictor {
	if k, ok := m.model.(*model.KCCA); ok {
		return k.Predictor()
	}
	return nil
}

// slot is the atomically hot-swappable model holder: reads are a single
// atomic pointer load on the predict path, swaps publish a freshly trained
// model without blocking a single in-flight prediction.
type slot struct {
	cur  atomic.Pointer[servedModel]
	gens atomic.Int64
}

// get returns the current model, or nil before the first swap.
func (s *slot) get() *servedModel { return s.cur.Load() }

// swap publishes a new model and returns its generation (1 for the boot
// model).
func (s *slot) swap(m model.Model) int64 {
	gen := s.gens.Add(1)
	s.cur.Store(&servedModel{model: m, gen: gen})
	return gen
}

// restore publishes a model recovered from durable state at the generation
// it held before the restart, so generations keep moving forward across
// process lifetimes (the next swap publishes gen+1).
func (s *slot) restore(m model.Model, gen int64) {
	s.gens.Store(gen)
	s.cur.Store(&servedModel{model: m, gen: gen})
}

// runBatch answers one micro-batch with one model, on the coalescer's
// goroutine: the slot is read once, so every item in the batch is served by
// the same generation even while retrains swap the slot concurrently.
// Predictions are delegated to the core Request/Result entrypoint, which
// fans out across the shared worker pool — responses are bit-identical to a
// direct PredictBatch on the same queries because they are the same code
// path.
func (s *Server) runBatch(b *coalesce.Batch) {
	reqs := b.Live()
	if len(reqs) == 0 {
		return
	}
	m := s.slot.get()
	b.Answer(m.model.Predict(reqs...), m.gen, m.model.Kind())
}

// observeLoop is the single goroutine driving the SlidingPredictor.
// Observations stream in from /v1/observe through a bounded channel; the
// sliding window's periodic retrains happen here, off the request path,
// and each completed retrain is atomically swapped into the model slot.
// In steady state those retrains are incremental (maintained kernel
// matrices patched per observation, warm-started top-rank eigensolves —
// see kcca.Incremental), falling back to full trainings when the τ-drift
// guard fires; either way this loop only sees Observe/Retrain complete and
// publishes whatever model they produced. Mirrored atomics (windowSize,
// retrains) let handlers report window state without locking the
// SlidingPredictor.
func (s *Server) observeLoop() {
	defer close(s.observeDone)
	for q := range s.observeCh {
		// Write-ahead: log the observation before applying it, so a crash
		// between the two replays it on restart. A failed append is counted
		// (wal.append.errors) but does not fail the observation —
		// availability over durability; the record is simply absent from a
		// future replay.
		var seq uint64
		if s.store != nil {
			seq, _ = s.store.Append(q.SQL, q.Metrics)
		}
		before := s.sliding.Retrains()
		if err := s.sliding.Observe(q); err != nil {
			// A failed retrain (for example a degenerate window) keeps the
			// previous model serving; the observation itself is retained.
			retrainErrors.Inc()
		}
		s.windowSize.Store(int64(s.sliding.WindowSize()))
		if s.sliding.Retrains() != before {
			s.slot.swap(model.WrapKCCA(s.sliding.Current()))
			modelSwaps.Inc()
		}
		if s.store != nil {
			s.store.Applied(seq)
			if err := s.store.MaybeSnapshot(s.sliding, s.generation()); err != nil {
				walSnapshotFails.Inc()
			}
		}
		observeQueueDepth.Set(int64(len(s.observeCh)))
	}
}

// generation returns the currently served model generation (0 while cold).
func (s *Server) generation() int64 {
	if m := s.slot.get(); m != nil {
		return m.gen
	}
	return 0
}

// enqueueObservation hands one executed query to the observe loop without
// blocking: a full feedback queue sheds load (the caller reports 429)
// rather than stalling the write path.
func (s *Server) enqueueObservation(q *dataset.Query) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return errShuttingDown
	}
	if s.observeCh == nil {
		return errNoFeedback
	}
	select {
	case s.observeCh <- q:
		observeQueueDepth.Set(int64(len(s.observeCh)))
		return nil
	default:
		rejectedOverload.Inc()
		return errOverloaded
	}
}
