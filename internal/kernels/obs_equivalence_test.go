package kernels

import (
	"testing"

	"repro/internal/testutil"
)

// TestEquivalenceWithObsEnabled re-runs the reference suite while every
// instrument is read in a loop, as /metrics and /timings do: the always-on
// timers and histograms in the hot paths, read mid-update, must not perturb
// bit-for-bit results.
func TestEquivalenceWithObsEnabled(t *testing.T) {
	defer testutil.Scrape()()
	t.Run("Matrix", TestMatrixIsPairwiseGaussian)
	t.Run("CrossVector", TestCrossVectorMatchesGaussian)
	t.Run("Center", TestCenterMatchesFormula)
}
