package core

import (
	"testing"

	"repro/internal/testutil"
)

// TestEquivalenceWithObsEnabled re-runs the end-to-end batch equivalence
// test while every instrument is read in a loop, as /metrics and /timings
// do: the latency histograms and stage timers across train and predict,
// read mid-update, must not perturb bit-for-bit predictions.
func TestEquivalenceWithObsEnabled(t *testing.T) {
	defer testutil.Scrape()()
	t.Run("PredictBatch", TestPredictBatchMatchesSerialLoop)
}
