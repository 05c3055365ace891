package shard

import (
	"sync/atomic"

	"repro/internal/core"
)

// Model is what a shard's generation slot serves. *core.Predictor is the
// one implementation; the interface exists so the queue tests can put a
// recording double (internal/coalesce/coalescetest) in its place.
type Model interface {
	// Predict evaluates every request and returns one Result per request,
	// positionally. A failed request carries its error in its own Result.
	Predict(reqs ...core.Request) []core.Result
	// N is the number of training observations the model was fitted on.
	N() int
}

// Served is one immutable model plus its generation tag. A trained model is
// never mutated after training returns, so readers may use it lock-free for
// as long as they hold the pointer; a hot swap only replaces which pointer
// new readers pick up. The generation also scopes the predictor's internal
// prediction cache: each Predictor carries its own, so swapping generations
// retires every cached prediction of the previous model wholesale.
type Served struct {
	Model Model
	Gen   int64
}

// Pred returns the served core predictor, or nil when a test double serves
// — the introspection hook for reporting (feature options, kNN index
// statistics).
func (s *Served) Pred() *core.Predictor {
	p, _ := s.Model.(*core.Predictor)
	return p
}

// Slot is the atomically hot-swappable model holder every shard carries:
// reads are a single atomic pointer load on the predict path, swaps publish
// a freshly trained model without blocking a single in-flight prediction,
// and generations only ever move forward.
type Slot struct {
	cur  atomic.Pointer[Served]
	gens atomic.Int64
}

// Get returns the current model, or nil before the first swap.
func (s *Slot) Get() *Served { return s.cur.Load() }

// Swap publishes a new model and returns its generation (1 for the boot
// model).
func (s *Slot) Swap(m Model) int64 {
	gen := s.gens.Add(1)
	s.cur.Store(&Served{Model: m, Gen: gen})
	return gen
}

// Restore publishes a model recovered from durable state at the generation
// it had before the restart, so generations keep moving forward across
// process lifetimes (the next Swap publishes gen+1).
func (s *Slot) Restore(m Model, gen int64) {
	s.gens.Store(gen)
	s.cur.Store(&Served{Model: m, Gen: gen})
}
