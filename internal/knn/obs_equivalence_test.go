package knn

import (
	"testing"

	"repro/internal/testutil"
)

// TestEquivalenceWithObsEnabled re-runs the brute-force, tie-break and
// concurrent-search suites while every instrument is read in a loop, as
// /metrics and /timings do: the search counters and candidate histogram,
// updated from many goroutines and read mid-update, must not perturb
// results.
func TestEquivalenceWithObsEnabled(t *testing.T) {
	defer testutil.Scrape()()
	t.Run("Nearest", TestNearestMatchesBruteForce)
	t.Run("TieBreak", TestTieBreakByIndexWithDuplicateRows)
	t.Run("Concurrent", TestConcurrentNearestMatchesSerial)
}
