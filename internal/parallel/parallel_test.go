package parallel

import (
	"bytes"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"
)

// workerCounts is the sweep used across the equivalence suites.
func workerCounts() []int {
	return []int{1, 2, 7, runtime.NumCPU()}
}

// goroutineID parses the calling goroutine's id from its stack header,
// "goroutine N [running]:".
func goroutineID(t *testing.T) uint64 {
	var buf [64]byte
	b := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	id, err := strconv.ParseUint(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	if err != nil {
		t.Fatalf("goroutine id: %v", err)
	}
	return id
}

func TestForCoversRangeExactlyOnce(t *testing.T) {
	for _, w := range workerCounts() {
		defer SetMaxProcs(SetMaxProcs(w))
		for _, n := range []int{0, 1, 7, 64, 1000} {
			hits := make([]int32, n)
			For(n, func(i int) {
				if i < 0 || i >= n {
					t.Errorf("index %d out of [0,%d)", i, n)
					return
				}
				atomic.AddInt32(&hits[i], 1)
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("w=%d n=%d: index %d hit %d times", w, n, i, h)
				}
			}
		}
	}
}

// TestForSerialFallbackRunsOnCaller: with one index, or one worker, every
// call runs on the calling goroutine in index order, so writes need no
// synchronization at all.
func TestForSerialFallbackRunsOnCaller(t *testing.T) {
	caller := goroutineID(t)
	check := func(n int) {
		var order []int
		For(n, func(i int) {
			if id := goroutineID(t); id != caller {
				t.Errorf("n=%d: index %d ran on goroutine %d, caller is %d", n, i, id, caller)
			}
			order = append(order, i)
		})
		for i, got := range order {
			if got != i {
				t.Fatalf("n=%d: call %d got index %d", n, i, got)
			}
		}
		if len(order) != n {
			t.Fatalf("n=%d: %d calls", n, len(order))
		}
	}
	defer SetMaxProcs(SetMaxProcs(8))
	check(1)
	SetMaxProcs(1)
	check(1000)
}

// TestForLeavesNoGoroutine: every fn call has returned when For does, and
// the goroutines For started exit with it; nothing outlives the call.
func TestForLeavesNoGoroutine(t *testing.T) {
	defer SetMaxProcs(SetMaxProcs(4))
	before := runtime.NumGoroutine()
	var running, done atomic.Int64
	For(64, func(i int) {
		running.Add(1)
		time.Sleep(100 * time.Microsecond)
		running.Add(-1)
		done.Add(1)
	})
	if r, d := running.Load(), done.Load(); r != 0 || d != 64 {
		t.Fatalf("after For: %d calls running, %d done, want 0 and 64", r, d)
	}
	// A goroutine signals the WaitGroup just before it exits, so give the
	// scheduler a moment to retire it.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after For, %d before", runtime.NumGoroutine(), before)
		}
	}
}

func TestDoRunsAll(t *testing.T) {
	var a, b, c atomic.Int32
	Do()
	Do(func() { a.Add(1) })
	Do(func() { a.Add(1) }, func() { b.Add(1) }, func() { c.Add(1) })
	if a.Load() != 2 || b.Load() != 1 || c.Load() != 1 {
		t.Fatalf("Do counts: %d %d %d", a.Load(), b.Load(), c.Load())
	}
}

// TestNestedForDoesNotDeadlock: For and Do inside For and Do all finish,
// at every worker count.
func TestNestedForDoesNotDeadlock(t *testing.T) {
	for _, w := range workerCounts() {
		defer SetMaxProcs(SetMaxProcs(w))
		var total atomic.Int64
		inner := func() {
			For(16, func(int) { total.Add(1) })
			Do(func() { total.Add(1) }, func() { total.Add(1) })
		}
		For(16, func(int) { inner() })
		Do(inner, inner)
		if want := int64(18 * 18); total.Load() != want {
			t.Fatalf("w=%d: nested calls ran %d bodies, want %d", w, total.Load(), want)
		}
	}
}

func TestSetMaxProcs(t *testing.T) {
	old := SetMaxProcs(3)
	if MaxProcs() != 3 {
		t.Fatalf("MaxProcs=%d after SetMaxProcs(3)", MaxProcs())
	}
	if prev := SetMaxProcs(0); prev != 3 {
		t.Fatalf("SetMaxProcs returned %d, want 3", prev)
	}
	if MaxProcs() != runtime.GOMAXPROCS(0) {
		t.Fatalf("MaxProcs=%d, want GOMAXPROCS=%d", MaxProcs(), runtime.GOMAXPROCS(0))
	}
	if prev := SetMaxProcs(-5); prev != 0 {
		t.Fatalf("negative SetMaxProcs returned %d, want 0", prev)
	}
	SetMaxProcs(old)
}

// TestForStress runs For from many concurrent callers; run under -race this
// is the data-race check for the package itself.
func TestForStress(t *testing.T) {
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			sums := make([]int64, 256)
			for rep := 0; rep < 50; rep++ {
				For(len(sums), func(i int) { sums[i]++ })
			}
			for i, s := range sums {
				if s != 50 {
					t.Errorf("sums[%d]=%d, want 50", i, s)
					return
				}
			}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}
