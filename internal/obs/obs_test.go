package obs

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestCounterGaugeFloatTotal(t *testing.T) {
	Reset()
	c := GetCounter("test.counter")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	if GetCounter("test.counter") != c {
		t.Error("registry returned a different counter for the same name")
	}
	g := GetGauge("test.gauge")
	g.Set(7)
	g.Add(-2)
	if g.Value() != 5 {
		t.Errorf("gauge = %d, want 5", g.Value())
	}
	ft := GetFloatTotal("test.total")
	ft.Add(0.5)
	ft.Add(0.25)
	if ft.Value() != 0.75 {
		t.Errorf("float total = %v, want 0.75", ft.Value())
	}
	Reset()
	if c.Value() != 0 || g.Value() != 0 || ft.Value() != 0 {
		t.Error("Reset did not zero instruments")
	}
	if GetCounter("test.counter") != c {
		t.Error("Reset replaced instruments instead of zeroing in place")
	}
}

func TestHistogramBucketEdgesDeterministic(t *testing.T) {
	// Each observation must land in the bucket whose (lo, hi] range
	// contains it, with hi = UpperEdge(i).
	for _, v := range []float64{1e-12, 1e-9, 1.5e-9, 1, 2, 999, 1e8, 1e12, math.Inf(1)} {
		i := bucketIndex(v)
		if i < 0 || i >= histNumBuckets {
			t.Fatalf("bucketIndex(%v) = %d out of range", v, i)
		}
		hi := UpperEdge(i)
		if v > hi && !math.IsInf(v, 1) {
			t.Errorf("value %v above its bucket's upper edge %v", v, hi)
		}
		if i > 0 {
			lo := UpperEdge(i - 1)
			if v <= lo && !math.IsInf(v, 1) {
				t.Errorf("value %v at or below the previous edge %v (bucket %d)", v, lo, i)
			}
		}
	}
	// Exact powers of ten sit at their decade's closing edge.
	if got := UpperEdge(bucketIndex(1.0)); got != 1.0 {
		t.Errorf("UpperEdge(bucketIndex(1)) = %v, want exactly 1", got)
	}
	// Nonpositive and NaN go to the underflow bucket.
	for _, v := range []float64{0, -1, math.NaN(), math.Inf(-1)} {
		if bucketIndex(v) != 0 {
			t.Errorf("bucketIndex(%v) = %d, want underflow bucket 0", v, bucketIndex(v))
		}
	}
	if last := UpperEdge(histNumBuckets - 1); last != math.MaxFloat64 {
		t.Errorf("overflow edge = %v, want MaxFloat64", last)
	}
}

func TestHistogramObserveAndQuantile(t *testing.T) {
	h := &Histogram{}
	for _, v := range []float64{0.001, 0.002, 0.004, 0.008, 0.5} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if math.Abs(h.Sum()-0.515) > 1e-12 {
		t.Errorf("sum = %v", h.Sum())
	}
	if math.Abs(h.Mean()-0.103) > 1e-12 {
		t.Errorf("mean = %v", h.Mean())
	}
	// The median observation is 0.004; the reported quantile is its
	// bucket's upper edge, so it must bracket the value from above within
	// one bucket width (factor 10^(1/4)).
	p50 := h.Quantile(0.5)
	if p50 < 0.004 || p50 > 0.004*math.Pow(10, 0.25)+1e-15 {
		t.Errorf("p50 = %v, want in (0.004, 0.004*10^0.25]", p50)
	}
	if q := h.Quantile(1); q < 0.5 {
		t.Errorf("p100 = %v below max observation", q)
	}
	// NaN/Inf observations count but do not poison the sum.
	h.Observe(math.NaN())
	h.Observe(math.Inf(1))
	if h.Count() != 7 || math.IsNaN(h.Sum()) || math.IsInf(h.Sum(), 0) {
		t.Errorf("count=%d sum=%v after non-finite observations", h.Count(), h.Sum())
	}
	empty := &Histogram{}
	if empty.Quantile(0.5) != 0 || empty.Mean() != 0 {
		t.Error("empty histogram quantile/mean should be 0")
	}
}

func TestSinceRecordsElapsedSeconds(t *testing.T) {
	h := &Histogram{}
	for i := 0; i < 3; i++ {
		start := time.Now()
		time.Sleep(time.Millisecond)
		if end := h.Since(start); end.Before(start.Add(time.Millisecond)) {
			t.Errorf("Since returned %v, not the end of the region", end)
		}
	}
	if h.Count() != 3 {
		t.Fatalf("count = %d, want 3", h.Count())
	}
	if h.Sum() < 3e-3 || h.Quantile(1) < 1e-3 {
		t.Errorf("sum=%v p100=%v after three 1 ms regions", h.Sum(), h.Quantile(1))
	}
}

// TestSinceAllocFree: a timed call costs no allocation, in either idiom.
func TestSinceAllocFree(t *testing.T) {
	h := GetHistogram("test.allocfree.seconds")
	for name, timed := range map[string]func(){
		"defer":  func() { defer h.Since(time.Now()) },
		"region": func() { start := time.Now(); h.Since(start) },
	} {
		t.Run(name, func(t *testing.T) {
			if allocs := testing.AllocsPerRun(100, timed); allocs != 0 {
				t.Errorf("a timed call allocates %v times, want 0", allocs)
			}
		})
	}
}

func TestSnapshotAndJSON(t *testing.T) {
	Reset()
	GetCounter("snap.counter").Add(2)
	GetGauge("snap.gauge").Set(9)
	GetFloatTotal("snap.total").Add(1.5)
	GetHistogram("snap.hist").Observe(0.01)
	s := Take()
	if s.Counters["snap.counter"] != 2 || s.Gauges["snap.gauge"] != 9 || s.Totals["snap.total"] != 1.5 {
		t.Errorf("snapshot scalars wrong: %+v", s)
	}
	hs, ok := s.Histograms["snap.hist"]
	if !ok || hs.Count != 1 || len(hs.Buckets) != 1 {
		t.Errorf("snapshot histogram wrong: %+v", hs)
	}
	out := JSON()
	for _, want := range []string{"snap.counter", "snap.gauge", "snap.total", "snap.hist"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("JSON output missing %q", want)
		}
	}
}

func TestTimingsTable(t *testing.T) {
	Reset()
	if !strings.Contains(TimingsTable(), "no stage timings") {
		t.Error("empty table should say so")
	}
	// A parent of 10 s with children of 3 s and 4 s has 3 s of its own, and
	// the 4 s child's own child of 1 s leaves it 3 s. A stage whose parent
	// is not listed (run.predict: no run.seconds) is a root.
	GetHistogram("train.seconds").Observe(10)
	GetHistogram("train.kernel.seconds").Observe(3)
	GetHistogram("train.eigen.seconds").Observe(4)
	GetHistogram("train.eigen.ql.seconds").Observe(1)
	GetHistogram("run.predict.seconds").Observe(0.002)
	GetHistogram("run.predict.seconds").Observe(0.002)
	GetHistogram("batch.size").Observe(64) // not a latency
	lines := strings.Split(strings.TrimSuffix(TimingsTable(), "\n"), "\n")
	var got []string
	for i, line := range lines {
		if i != 1 { // the rule under the header
			indent := len(line) - len(strings.TrimLeft(line, " "))
			got = append(got, strings.Repeat(" ", indent)+strings.Join(strings.Fields(line), " "))
		}
	}
	want := []string{
		"stage calls total_s self_s mean_ms p50_ms p99_ms",
		"run.predict 2 0.0040 0.0040 2.000 3.162 3.162",
		"train 1 10.0000 3.0000 10000.000 10000.000 10000.000",
		"  train.eigen 1 4.0000 3.0000 4000.000 5623.413 5623.413",
		"    train.eigen.ql 1 1.0000 1.0000 1000.000 1000.000 1000.000",
		"  train.kernel 1 3.0000 3.0000 3000.000 3162.278 3162.278",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("timings table:\n%s\nwant rows:\n%s", strings.Join(lines, "\n"), strings.Join(want, "\n"))
	}
}

// BenchmarkSince is the cost of one timed call, `defer h.Since(time.Now())`,
// alone and from every P at once into the same histogram.
func BenchmarkSince(b *testing.B) {
	h := GetHistogram("bench.since.seconds")
	timed := func() { defer h.Since(time.Now()) }
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			timed()
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				timed()
			}
		})
	})
}
