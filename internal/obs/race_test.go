// Race coverage for concurrent instrument updates. This file is in package
// obs_test so it can drive updates through parallel.For's goroutines
// (internal/parallel imports obs, so the inverse import must live outside
// the obs package proper).
package obs_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/parallel"
)

// TestConcurrentUpdatesFromPoolWorkers hammers every instrument kind from
// parallel.For's workers while snapshots are taken concurrently. Run under -race (the
// CI race job does) this proves the atomic instrument implementations and
// the lock-free snapshot path are data-race free.
func TestConcurrentUpdatesFromPoolWorkers(t *testing.T) {
	obs.Reset()

	c := obs.GetCounter("race.counter")
	g := obs.GetGauge("race.gauge")
	ft := obs.GetFloatTotal("race.total")
	h := obs.GetHistogram("race.hist")
	stage := obs.GetHistogram("race.stage.seconds")

	var wg sync.WaitGroup
	stopSnaps := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stopSnaps:
				return
			default:
				_ = obs.Take()
				_ = obs.JSON()
				_ = obs.TimingsTable()
			}
		}
	}()

	const n, rounds = 512, 8
	for r := 0; r < rounds; r++ {
		parallel.For(n, func(i int) {
			c.Inc()
			g.Set(int64(i))
			ft.Add(0.001)
			h.Observe(float64(i+1) * 1e-6)
			stage.Since(time.Now())
		})
	}
	close(stopSnaps)
	wg.Wait()

	const want = n * rounds
	if c.Value() != want {
		t.Errorf("counter = %d, want %d", c.Value(), want)
	}
	if h.Count() != want {
		t.Errorf("histogram count = %d, want %d", h.Count(), want)
	}
	if stage.Count() != want {
		t.Errorf("stage count = %d, want %d", stage.Count(), want)
	}
	if ft.Value() <= 0 {
		t.Errorf("float total = %v", ft.Value())
	}
}
