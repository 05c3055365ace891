package testutil

import (
	"fmt"
	"runtime"
)

// LargeAllocSites runs fn and returns one description per call stack that,
// during fn, allocated an object of at least minBytes — testing.AllocsPerRun
// counts allocations, this finds the big ones by size. It reads the runtime's
// allocation profile, which at the default runtime.MemProfileRate samples
// allocations at random intervals and so can miss even a large one; the rate
// is therefore 1 (every allocation recorded) while fn runs, and restored
// after. Allocations made concurrently by other goroutines are included.
func LargeAllocSites(minBytes int64, fn func()) []string {
	before := allocProfile()
	func() {
		defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
		runtime.MemProfileRate = 1
		fn()
	}()
	var sites []string
	for stack, after := range allocProfile() {
		objs := after.AllocObjects - before[stack].AllocObjects
		bytes := after.AllocBytes - before[stack].AllocBytes
		if objs == 0 || bytes/objs < minBytes {
			continue
		}
		frames := runtime.CallersFrames(after.Stack())
		desc := fmt.Sprintf("%d × %d B:", objs, bytes/objs)
		for depth := 0; depth < 6; depth++ {
			f, more := frames.Next()
			desc += fmt.Sprintf(" %s:%d", f.Function, f.Line)
			if !more {
				break
			}
		}
		sites = append(sites, desc)
	}
	return sites
}

// allocProfile returns the cumulative allocation profile keyed by call
// stack, current as of now (the profile only publishes allocations once a
// garbage collection has completed after them).
func allocProfile() map[[32]uintptr]runtime.MemProfileRecord {
	runtime.GC()
	recs := make([]runtime.MemProfileRecord, 256)
	for {
		n, ok := runtime.MemProfile(recs, true)
		if ok {
			recs = recs[:n]
			break
		}
		recs = make([]runtime.MemProfileRecord, 2*n)
	}
	// The runtime keeps one record per stack and object size: sum them, or
	// a stack that once allocated another size hides the one it allocates
	// now.
	out := make(map[[32]uintptr]runtime.MemProfileRecord, len(recs))
	for _, r := range recs {
		sum := out[r.Stack0]
		sum.Stack0 = r.Stack0
		sum.AllocObjects += r.AllocObjects
		sum.AllocBytes += r.AllocBytes
		out[r.Stack0] = sum
	}
	return out
}
