// Package parallel runs whole independent tasks on the available cores: the
// queries of a prediction batch, the scenarios of a what-if sweep. Loops
// inside the numeric kernels stay serial; a task is the unit of parallel
// work.
//
// Determinism contract: For calls fn exactly once per index, so callers that
// write only to per-index outputs produce the same result at every worker
// count. The batch equivalence tests of kcca, core and exec hold every
// caller to that contract.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// forCalls counts For calls, one atomic add each.
var forCalls = obs.GetCounter("parallel.for.calls")

// maxProcs, when positive, caps the number of goroutines a single For
// call may use. Zero (the default) means "use GOMAXPROCS".
var maxProcs atomic.Int64

// SetMaxProcs overrides the per-call worker cap and returns the previous
// override (0 if none was set). Passing 0 restores the GOMAXPROCS default;
// passing 1 runs every subsequent For on the caller. Tests use it to
// sweep worker counts:
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

// For calls fn(i) once for every i in [0, n) and returns when every call
// has. The caller and min(MaxProcs(), n) − 1 goroutines started for this
// call claim indexes from one shared counter; with one worker, fn runs on
// the caller in index order. fn must be safe to call concurrently for
// distinct indexes. Each call owns its goroutines, so nested calls cannot
// wait on one another.
func For(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	forCalls.Inc()
	w := min(MaxProcs(), n)
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	run := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			fn(i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(w - 1)
	for g := 1; g < w; g++ {
		go func() {
			defer wg.Done()
			run()
		}()
	}
	run()
	wg.Wait()
}
