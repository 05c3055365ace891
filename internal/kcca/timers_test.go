package kcca

import (
	"testing"

	"repro/internal/obs"
)

// TestTrainTimesEachStage: with no switch set, one Train observes
// kcca.train and each of its four stages once, both views' kernel builds,
// centerings and eigensolves (with their three phases), and the CCA fit's
// one SVD. A stage runs inside its parent, so the children's times add up
// to no more than the parent's: the timing table's self column is never
// negative.
func TestTrainTimesEachStage(t *testing.T) {
	want := map[string]int64{
		"kcca.train": 1, "kcca.train.kernel": 1, "kcca.train.eigen": 1, "kcca.train.cca": 1, "kcca.train.project": 1,
		"kernels.matrix": 2, "kernels.center": 2, "linalg.svd": 1,
		"linalg.eigen": 2, "linalg.eigen.reduce": 2, "linalg.eigen.accumulate": 2, "linalg.eigen.ql": 2,
	}
	count, sum := map[string]int64{}, map[string]float64{}
	for stage := range want {
		h := obs.GetHistogram(stage + ".seconds")
		count[stage], sum[stage] = h.Count(), h.Sum()
	}
	x, y := nonlinearViews(1, 120)
	if _, err := Train(x, y, unitOpts()); err != nil {
		t.Fatal(err)
	}
	for stage, n := range want {
		h := obs.GetHistogram(stage + ".seconds")
		if got := h.Count() - count[stage]; got != n {
			t.Errorf("%s observed %d times in one Train, want %d", stage, got, n)
		}
		sum[stage] = h.Sum() - sum[stage]
	}
	for parent, children := range map[string][]string{
		"kcca.train":   {"kcca.train.kernel", "kcca.train.eigen", "kcca.train.cca", "kcca.train.project"},
		"linalg.eigen": {"linalg.eigen.reduce", "linalg.eigen.accumulate", "linalg.eigen.ql"},
	} {
		var inside float64
		for _, c := range children {
			inside += sum[c]
		}
		if inside > sum[parent]+1e-9 {
			t.Errorf("%s's stages took %.6fs, more than its own %.6fs", parent, inside, sum[parent])
		}
	}
}
