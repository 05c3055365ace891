package knn

import (
	"testing"

	"repro/internal/obs"
)

// TestEquivalenceWithObsEnabled re-runs the brute-force, tie-break and
// concurrent-search suites with instrumentation on: the search counters and candidate
// histogram (updated from many goroutines) must not perturb results.
func TestEquivalenceWithObsEnabled(t *testing.T) {
	defer obs.SetEnabled(obs.SetEnabled(true))
	t.Run("Nearest", TestNearestMatchesBruteForce)
	t.Run("TieBreak", TestTieBreakByIndexWithDuplicateRows)
	t.Run("Concurrent", TestConcurrentNearestMatchesSerial)
}
