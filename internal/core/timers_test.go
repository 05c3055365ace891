package core

import (
	"testing"

	"repro/internal/obs"
)

// TestPredictTimersFireAsDocumented holds the timers to docs/API.md's
// "what the prediction counters and timers count", with no switch set:
// core.predict.seconds once per Predict call whatever its size, and
// kernels.cross_vector, kcca.project_query and knn.search once per computed
// vector — per prediction-cache miss — so not at all for a batch answered
// from the cache.
func TestPredictTimersFireAsDocumented(t *testing.T) {
	train, test := trainTest(t)
	trainsBefore := obs.GetHistogram("core.train.seconds").Count()
	p, err := Train(train, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := obs.GetHistogram("core.train.seconds").Count() - trainsBefore; got != 1 {
		t.Errorf("core.train.seconds observed %d times in one Train, want 1", got)
	}
	reqs := make([]Request, 6)
	for i := range reqs {
		reqs[i] = Request{Query: test[i]}
	}
	perCall := obs.GetHistogram("core.predict.seconds")
	perVector := []string{"kernels.cross_vector.seconds", "kcca.project_query.seconds", "knn.search.seconds"}
	for _, pass := range []string{"cold", "cached"} {
		t.Run(pass, func(t *testing.T) {
			calls, misses := perCall.Count(), projMisses.Value()
			vectors := make([]int64, len(perVector))
			for i, name := range perVector {
				vectors[i] = obs.GetHistogram(name).Count()
			}
			for _, r := range p.Predict(reqs...) {
				if r.Err != nil {
					t.Fatal(r.Err)
				}
			}
			if got := perCall.Count() - calls; got != 1 {
				t.Errorf("core.predict.seconds observed %d times for one Predict call, want 1", got)
			}
			computed := projMisses.Value() - misses
			if (pass == "cold") != (computed > 0) {
				t.Fatalf("%d vectors computed", computed)
			}
			for i, name := range perVector {
				if got := obs.GetHistogram(name).Count() - vectors[i]; got != computed {
					t.Errorf("%s observed %d times for %d computed vectors", name, got, computed)
				}
			}
		})
	}
}
