// Package coalescetest holds the model doubles that the queue tests of
// internal/coalesce, internal/serve and internal/shard share.
package coalescetest

import (
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// Predictor is what a shard serves (shard.Model, declared again here
// because the shard tests import this package): *core.Predictor, or Stub.
type Predictor interface {
	Predict(reqs ...core.Request) []core.Result
	N() int
}

// Model wraps a model for queue tests: it records the size of every Predict
// call — one call is one micro-batch — and runs Hook first, on the
// coalescer's goroutine, where a test can hold the batch at a gate or swap
// the engine's slot between two batches.
type Model struct {
	Predictor
	// Hook, when set, runs at the start of each Predict with the call's
	// index (from 0) and its batch size.
	Hook func(call, size int)

	mu    sync.Mutex
	sizes []int
}

func (m *Model) Predict(reqs ...core.Request) []core.Result {
	m.mu.Lock()
	call := len(m.sizes)
	m.sizes = append(m.sizes, len(reqs))
	m.mu.Unlock()
	if m.Hook != nil {
		m.Hook(call, len(reqs))
	}
	return m.Predictor.Predict(reqs...)
}

// Sizes returns the size of every micro-batch predicted so far, in order.
func (m *Model) Sizes() []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]int(nil), m.sizes...)
}

// Gate returns a hook that holds the first Predict call until release is
// called (any number of times), and a channel that is closed once that call
// has arrived — so a test can queue work behind a batch it knows is in
// flight.
func Gate() (hook func(call, size int), arrived <-chan struct{}, release func()) {
	in, out := make(chan struct{}), make(chan struct{})
	var once sync.Once
	hook = func(call, _ int) {
		if call == 0 {
			close(in)
			<-out
		}
	}
	return hook, in, func() { once.Do(func() { close(out) }) }
}

var queueDepth = obs.GetGauge("serve.queue.depth")

// Depth reads serve.queue.depth: the queries pending on every queue of the
// process.
func Depth() int64 { return queueDepth.Value() }

// WaitDepth waits for serve.queue.depth to reach want: the event that tells
// a test its concurrently submitted requests are pending behind the gate.
func WaitDepth(tb testing.TB, want int64) {
	tb.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for Depth() != want {
		if time.Now().After(deadline) {
			tb.Fatalf("serve.queue.depth %d, want %d", Depth(), want)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// Stub is a model that answers every request with the same empty
// prediction and computes nothing: for tests about how requests are cut
// into micro-batches, not about what is predicted.
type Stub struct{}

func (Stub) N() int { return 0 }

func (Stub) Predict(reqs ...core.Request) []core.Result {
	out := make([]core.Result, len(reqs))
	for i := range out {
		out[i].Prediction = &core.Prediction{}
	}
	return out
}
