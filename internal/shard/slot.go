package shard

import (
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/model"
)

// Served is one immutable model plus its generation tag. A trained Model
// (of any kind — KCCA, plan-structured, calibrated-cost) is never mutated
// after training returns, so readers may use it lock-free for as long as
// they hold the pointer; a hot swap only replaces which pointer new readers
// pick up. For KCCA the generation also scopes the predictor's internal
// prediction cache: each Predictor carries its own, so swapping generations
// retires every cached prediction of the previous model wholesale.
type Served struct {
	Model model.Model
	Gen   int64
}

// Pred returns the underlying core predictor when the served model is the
// KCCA kind, or nil for any other kind — the introspection hook for
// KCCA-specific reporting (feature options, kNN index statistics).
func (s *Served) Pred() *core.Predictor {
	if k, ok := s.Model.(*model.KCCA); ok {
		return k.Predictor()
	}
	return nil
}

// Slot is the atomically hot-swappable model holder every shard carries:
// reads are a single atomic pointer load on the predict path, swaps publish
// a freshly trained model without blocking a single in-flight prediction,
// and generations only ever move forward. Promotions reuse the exact same
// path: a challenger taking over is just one more Swap.
type Slot struct {
	cur  atomic.Pointer[Served]
	gens atomic.Int64
}

// Get returns the current model, or nil before the first swap.
func (s *Slot) Get() *Served { return s.cur.Load() }

// Swap publishes a new model and returns its generation (1 for the boot
// model).
func (s *Slot) Swap(m model.Model) int64 {
	gen := s.gens.Add(1)
	s.cur.Store(&Served{Model: m, Gen: gen})
	return gen
}

// Restore publishes a model recovered from durable state at the generation
// it had before the restart, so generations keep moving forward across
// process lifetimes (the next Swap publishes gen+1).
func (s *Slot) Restore(m model.Model, gen int64) {
	s.gens.Store(gen)
	s.cur.Store(&Served{Model: m, Gen: gen})
}
