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

func TestSpanAggregation(t *testing.T) {
	Reset()
	prev := SetEnabled(true)
	defer SetEnabled(prev)
	for i := 0; i < 3; i++ {
		stop := Span("test.stage")
		time.Sleep(time.Millisecond)
		stop()
	}
	st := GetStage("test.stage")
	if st.Count() != 3 {
		t.Fatalf("stage count = %d, want 3", st.Count())
	}
	if st.Total() <= 0 || st.Max() <= 0 || st.Max() > st.Total() {
		t.Errorf("total=%v max=%v", st.Total(), st.Max())
	}
}

func TestDisabledSpanIsNoop(t *testing.T) {
	Reset()
	prev := SetEnabled(false)
	defer SetEnabled(prev)
	Span("test.disabled")()
	if GetStage("test.disabled").Count() != 0 {
		t.Error("disabled span recorded a timing")
	}
	h := GetHistogram("test.disabled.hist")
	h.Time()()
	if h.Count() != 0 {
		t.Error("disabled histogram timer recorded")
	}
	// Counters are always live: they are one atomic add, not a clock read.
	GetCounter("test.disabled.counter").Inc()
	if GetCounter("test.disabled.counter").Value() != 1 {
		t.Error("counter did not record while disabled")
	}
}

func TestDisabledSpanAllocFree(t *testing.T) {
	Reset()
	prev := SetEnabled(false)
	defer SetEnabled(prev)
	allocs := testing.AllocsPerRun(100, func() {
		Span("test.allocfree")()
	})
	if allocs != 0 {
		t.Errorf("disabled Span allocates %v times per call, want 0", allocs)
	}
}

func TestSnapshotAndJSON(t *testing.T) {
	Reset()
	prev := SetEnabled(true)
	defer SetEnabled(prev)
	GetCounter("snap.counter").Add(2)
	GetGauge("snap.gauge").Set(9)
	GetFloatTotal("snap.total").Add(1.5)
	GetHistogram("snap.hist").Observe(0.01)
	Span("snap.stage")()
	s := Take()
	if !s.Enabled || s.Counters["snap.counter"] != 2 || s.Gauges["snap.gauge"] != 9 || s.Totals["snap.total"] != 1.5 {
		t.Errorf("snapshot scalars wrong: %+v", s)
	}
	hs, ok := s.Histograms["snap.hist"]
	if !ok || hs.Count != 1 || len(hs.Buckets) != 1 {
		t.Errorf("snapshot histogram wrong: %+v", hs)
	}
	found := false
	for _, st := range s.Stages {
		if st.Name == "snap.stage" && st.Count == 1 {
			found = true
		}
	}
	if !found {
		t.Error("snapshot missing stage")
	}
	out := JSON()
	for _, want := range []string{"snap.counter", "snap.gauge", "snap.total", "snap.hist", "snap.stage"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("JSON output missing %q", want)
		}
	}
}

func TestTimingsTable(t *testing.T) {
	Reset()
	prev := SetEnabled(true)
	defer SetEnabled(prev)
	if !strings.Contains(TimingsTable(), "no stage timings") {
		t.Error("empty table should say so")
	}
	for _, name := range []string{"train", "train.kernel", "train.eigen", "predict"} {
		stop := Span(name)
		time.Sleep(time.Millisecond)
		stop()
	}
	// Latency histograms follow the stage tree; other histograms do not.
	GetHistogram("queue_wait.seconds").Observe(0.002)
	GetHistogram("batch.size").Observe(64)
	tbl := TimingsTable()
	for _, want := range []string{"stage", "calls", "total_s", "self_s", "train", "  train.kernel", "  train.eigen", "predict",
		"histogram", "p50_ms", "queue_wait.seconds"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("timings table missing %q:\n%s", want, tbl)
		}
	}
	if strings.Contains(tbl, "batch.size") {
		t.Errorf("timings table lists a histogram that is not a latency:\n%s", tbl)
	}
}
