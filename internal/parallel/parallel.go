// Package parallel provides the shared worker pool used by the numeric hot
// paths (kernel matrices, dense linear algebra, nearest-neighbor search,
// batch prediction). It is deliberately small: a lazily started,
// adaptively sized pool of goroutines (grown on demand to the effective
// worker cap, never shrunk), a chunked parallel For loop and a Do for
// heterogeneous fan-out.
//
// Determinism contract: For partitions [0, n) into fixed contiguous chunks
// and every index is processed by exactly one worker, so callers that write
// only to per-index (or per-chunk) outputs — and that keep each element's
// summation order identical to their serial loop — produce bit-for-bit the
// same result at every worker count. The equivalence tests in the numeric
// packages hold every parallelized kernel to that contract.
//
// Grain-threshold fallback: when n <= grain, or when the effective worker
// count is 1, For invokes fn(0, n) directly on the calling goroutine — no
// goroutines, no channel traffic — so tiny inputs (and tests pinned to one
// worker via SetMaxProcs) take exactly the serial code path.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Pool metrics. Counters and gauges are single atomic updates, cheap enough
// to keep on permanently; see the obs package for the snapshot surface.
var (
	forCalls      = obs.GetCounter("parallel.for.calls")
	serialCalls   = obs.GetCounter("parallel.for.serial")
	chunksClaimed = obs.GetCounter("parallel.pool.chunks_claimed")
	inlineRuns    = obs.GetCounter("parallel.pool.inline_runs")
	workersGauge  = obs.GetGauge("parallel.pool.workers")
	queueGauge    = obs.GetGauge("parallel.pool.queue_depth")
)

// maxProcs, when positive, caps the number of workers a single For/Do
// call may use. Zero (the default) means "use GOMAXPROCS workers".
var maxProcs atomic.Int64

// SetMaxProcs overrides the per-call worker cap and returns the previous
// override (0 if none was set). Passing 0 restores the GOMAXPROCS default;
// passing 1 forces every subsequent For/Do onto the serial path. Tests
// use it to sweep worker counts:
//
//	defer parallel.SetMaxProcs(parallel.SetMaxProcs(7))
func SetMaxProcs(n int) int {
	if n < 0 {
		n = 0
	}
	return int(maxProcs.Swap(int64(n)))
}

// MaxProcs reports the effective worker cap: the SetMaxProcs override if
// one is set, otherwise GOMAXPROCS.
func MaxProcs() int {
	if n := maxProcs.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// The shared pool: workers draining a task channel. The pool grows lazily
// and adaptively: every parallel call re-checks the effective worker cap
// and starts any missing workers, so a first call made under a small
// GOMAXPROCS (or a SetMaxProcs override) no longer freezes the pool at that
// width forever. The pool never shrinks — an idle worker costs only a
// goroutine blocked on the channel. Submission never blocks: when the queue
// is full (including the nested case where a worker itself calls For), the
// submitting goroutine runs the task inline, so nested parallelism degrades
// to serial instead of deadlocking.
const poolQueueCap = 256

var (
	poolMu      sync.Mutex
	poolWorkers atomic.Int64
	tasks       chan func()
)

// ensurePool grows the pool to the current effective worker cap.
func ensurePool() {
	want := MaxProcs()
	if want < 1 {
		want = 1
	}
	if int(poolWorkers.Load()) >= want {
		return
	}
	poolMu.Lock()
	defer poolMu.Unlock()
	if tasks == nil {
		tasks = make(chan func(), poolQueueCap)
	}
	for int(poolWorkers.Load()) < want {
		poolWorkers.Add(1)
		go func() {
			for task := range tasks {
				task()
			}
		}()
	}
	workersGauge.Set(poolWorkers.Load())
}

// submit hands a task to the pool, running it inline when the queue is
// full.
func submit(task func()) {
	select {
	case tasks <- task:
		queueGauge.Set(int64(len(tasks)))
	default:
		inlineRuns.Inc()
		task()
	}
}

// For runs fn over the index range [0, n) in contiguous chunks of at most
// grain indexes. fn(lo, hi) must process exactly the half-open range
// [lo, hi). When n <= grain or only one worker is available the call
// degrades to fn(0, n) on the calling goroutine.
//
// fn must be safe to call concurrently for disjoint ranges; the ranges
// handed to it are always disjoint and cover [0, n) exactly once.
func For(n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	forCalls.Inc()
	if grain < 1 {
		grain = 1
	}
	w := MaxProcs()
	if w <= 1 || n <= grain {
		serialCalls.Inc()
		fn(0, n)
		return
	}
	chunks := (n + grain - 1) / grain
	if w > chunks {
		w = chunks
	}
	ensurePool()

	// Completion is tracked by counting finished chunks, NOT by waiting for
	// the helper goroutines: a helper that is still sitting in the pool
	// queue when the caller has drained every chunk must not be waited for
	// (all workers could be blocked in nested For calls — waiting on queued
	// helpers would deadlock). Stale helpers that run after the job is done
	// find no chunks left and exit immediately.
	var next, done atomic.Int64
	finished := make(chan struct{})
	drain := func() {
		for {
			c := int(next.Add(1)) - 1
			if c >= chunks {
				return
			}
			chunksClaimed.Inc()
			lo := c * grain
			hi := lo + grain
			if hi > n {
				hi = n
			}
			fn(lo, hi)
			if int(done.Add(1)) == chunks {
				close(finished)
			}
		}
	}
	for i := 0; i < w-1; i++ {
		submit(drain)
	}
	// The caller participates too, so a saturated pool still makes progress;
	// by the time its drain returns, every chunk is at least claimed, and
	// each claimant is a running goroutine that will finish its chunk.
	drain()
	<-finished
}

// Do runs the functions concurrently on the pool and waits for all of them.
// It is the fan-out primitive for a handful of heterogeneous tasks (for
// example computing the query-side and performance-side kernel matrices of
// a KCCA fit at the same time).
func Do(fns ...func()) {
	switch len(fns) {
	case 0:
		return
	case 1:
		fns[0]()
		return
	}
	For(len(fns), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fns[i]()
		}
	})
}

// GrainFor sizes a chunk so that it costs roughly targetOps units of work,
// given perItem units per index. It never returns less than 1. Callers use
// it to keep per-chunk work large enough to amortize scheduling:
//
//	parallel.For(rows, parallel.GrainFor(cols, 1<<15), body)
func GrainFor(perItem, targetOps int) int {
	if perItem < 1 {
		perItem = 1
	}
	g := targetOps / perItem
	if g < 1 {
		g = 1
	}
	return g
}
