package kernels

import (
	"testing"

	"repro/internal/obs"
)

// TestEquivalenceWithObsEnabled re-runs the reference suite with
// instrumentation on: span timers and histogram observations in the hot
// paths must not perturb bit-for-bit results.
func TestEquivalenceWithObsEnabled(t *testing.T) {
	defer obs.SetEnabled(obs.SetEnabled(true))
	t.Run("Matrix", TestMatrixIsPairwiseGaussian)
	t.Run("CrossVector", TestCrossVectorMatchesGaussian)
	t.Run("Center", TestCenterMatchesFormula)
}
