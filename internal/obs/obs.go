// Package obs is the repository's stdlib-only observability layer:
// counters, gauges, float totals and fixed-log-bucket histograms. A
// histogram named "<stage>.seconds" times one pipeline stage, and the dotted
// stage names form the timing tree that TimingsTable renders. The numeric
// packages (parallel, kernels, linalg, kcca, knn, core, exec) record into it
// from their hot paths, and the commands expose the collected state as a
// JSON snapshot (Take/JSON), a human-readable stage table (TimingsTable),
// and an HTTP endpoint with expvar and pprof (Handler, ServeMetrics).
//
// Cost contract: every instrument is a fixed atomic update — no locks and
// no allocation on the record path — so instrumentation stays compiled into
// the hot loops and is always on. A timed stage costs two clock reads and
// one Observe. Recording never feeds back into the instrumented
// computation, so the bit-for-bit serial/parallel equivalence guarantees of
// the numeric packages hold with every timer running.
package obs

import (
	"math"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current total.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) reset() { c.v.Store(0) }

// Gauge is an instantaneous integer value (pool width, queue depth).
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the gauge by n.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) reset() { g.v.Store(0) }

// FloatTotal is a float64 accumulator (e.g. seconds of simulated operator
// cost), updated with a compare-and-swap loop on the bit pattern.
type FloatTotal struct{ bits atomic.Uint64 }

// Add accumulates v.
func (f *FloatTotal) Add(v float64) {
	for {
		old := f.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Value returns the current total.
func (f *FloatTotal) Value() float64 { return math.Float64frombits(f.bits.Load()) }

func (f *FloatTotal) reset() { f.bits.Store(0) }

// The default registry. Instruments are created on first Get and live for
// the life of the process, so packages can capture them in package-level
// variables and pay only the atomic update per event.
var (
	counters sync.Map // string -> *Counter
	gauges   sync.Map // string -> *Gauge
	totals   sync.Map // string -> *FloatTotal
	hists    sync.Map // string -> *Histogram
)

// GetCounter returns the named counter, creating it if needed.
func GetCounter(name string) *Counter {
	if v, ok := counters.Load(name); ok {
		return v.(*Counter)
	}
	v, _ := counters.LoadOrStore(name, &Counter{})
	return v.(*Counter)
}

// GetGauge returns the named gauge, creating it if needed.
func GetGauge(name string) *Gauge {
	if v, ok := gauges.Load(name); ok {
		return v.(*Gauge)
	}
	v, _ := gauges.LoadOrStore(name, &Gauge{})
	return v.(*Gauge)
}

// GetFloatTotal returns the named float total, creating it if needed.
func GetFloatTotal(name string) *FloatTotal {
	if v, ok := totals.Load(name); ok {
		return v.(*FloatTotal)
	}
	v, _ := totals.LoadOrStore(name, &FloatTotal{})
	return v.(*FloatTotal)
}

// GetHistogram returns the named histogram, creating it if needed.
func GetHistogram(name string) *Histogram {
	if v, ok := hists.Load(name); ok {
		return v.(*Histogram)
	}
	v, _ := hists.LoadOrStore(name, &Histogram{})
	return v.(*Histogram)
}

// Reset zeroes every registered instrument in place. Instrument identity is
// preserved (package-level variables that captured an instrument keep
// recording into it), which is what test isolation needs.
func Reset() {
	counters.Range(func(_, v any) bool { v.(*Counter).reset(); return true })
	gauges.Range(func(_, v any) bool { v.(*Gauge).reset(); return true })
	totals.Range(func(_, v any) bool { v.(*FloatTotal).reset(); return true })
	hists.Range(func(_, v any) bool { v.(*Histogram).reset(); return true })
}
