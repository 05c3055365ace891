package linalg

import (
	"testing"

	"repro/internal/obs"
)

// TestEquivalenceWithObsEnabled re-runs the serial/parallel equivalence
// suite with instrumentation on: span timers in SymEig/SVD must not
// perturb bit-for-bit results.
func TestEquivalenceWithObsEnabled(t *testing.T) {
	defer obs.SetEnabled(obs.SetEnabled(true))
	t.Run("MatMul", TestMatMulParallelMatchesSerial)
	t.Run("SymEig", TestSymEigParallelMatchesSerial)
	t.Run("TopEigenInPlace", TestTopEigenInPlaceParallelMatchesSerial)
	t.Run("SVD", TestSVDParallelMatchesSerial)
}
