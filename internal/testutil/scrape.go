package testutil

import (
	"sync"

	"repro/internal/obs"
)

// Scrape reads every instrument in a loop, as a poller of /metrics and
// /timings does, until the returned stop is called; stop waits for the
// last read to finish. A test runs a suite between the two to show that
// the always-on timers, read while they are updated, perturb nothing.
func Scrape() (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				obs.Take()
				obs.TimingsTable()
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}
