package knn

import (
	"testing"

	"repro/internal/obs"
)

// TestEquivalenceWithObsEnabled re-runs the serial/parallel equivalence
// suite with instrumentation on: the search counters and candidate
// histogram (updated from pool workers) must not perturb results.
func TestEquivalenceWithObsEnabled(t *testing.T) {
	defer obs.SetEnabled(obs.SetEnabled(true))
	t.Run("Nearest", TestNearestParallelMatchesSerial)
	t.Run("Concurrent", TestConcurrentNearestMatchesSerial)
}
