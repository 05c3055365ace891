package core

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/parallel"
	"repro/internal/testutil"
)

// The batch ≡ single suite: Predict on a batch must return, position by
// position, exactly what Predict returns for each request alone on a
// predictor with no cache — prediction or error — whatever the batch size,
// the worker count, the duplicates inside the batch or the state and size of
// the projection cache.

// batchFixture trains on 300 pool queries (two-step or not) and returns
// requests for the other 180.
func batchFixture(t testing.TB, twoStep bool) (*Predictor, []Request) {
	t.Helper()
	ds := pool(t)
	opt := DefaultOptions()
	opt.TwoStep = twoStep
	p, err := Train(ds.Queries[:300], opt)
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]Request, len(ds.Queries)-300)
	for i := range reqs {
		reqs[i].Query = ds.Queries[300+i]
	}
	return p, reqs
}

// withCache returns a copy of p that shares the model and index but owns the
// given projection cache (nil for none).
func withCache(p *Predictor, c *projCache) *Predictor {
	clone := *p
	clone.cache = c
	return &clone
}

// alone evaluates every request on its own, on one worker, uncached.
func alone(p *Predictor, reqs []Request) []Result {
	defer parallel.SetMaxProcs(parallel.SetMaxProcs(1))
	bare := withCache(p, nil)
	want := make([]Result, len(reqs))
	for i, r := range reqs {
		want[i] = bare.Predict(r)[0]
	}
	return want
}

func mustMatchAlone(t *testing.T, ctx string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results for %d requests", ctx, len(got), len(want))
	}
	for i := range want {
		if (got[i].Err == nil) != (want[i].Err == nil) || (want[i].Err != nil && got[i].Err.Error() != want[i].Err.Error()) {
			t.Fatalf("%s request %d: error %v, alone %v", ctx, i, got[i].Err, want[i].Err)
		}
		// Metrics, category, confidence and the neighbor list with its
		// distances: DeepEqual on floats is ==, and none of these is NaN.
		if !reflect.DeepEqual(got[i].Prediction, want[i].Prediction) {
			t.Fatalf("%s request %d: prediction %+v, alone %+v", ctx, i, got[i].Prediction, want[i].Prediction)
		}
	}
}

func TestPredictBatchMatchesAlone(t *testing.T) {
	defer parallel.SetMaxProcs(parallel.SetMaxProcs(1))
	for _, twoStep := range []bool{false, true} {
		p, reqs := batchFixture(t, twoStep)
		want := alone(p, reqs)
		for _, w := range []int{1, 2, 7, runtime.NumCPU()} {
			parallel.SetMaxProcs(w)
			for _, size := range []int{1, 2, 3, 4, 5, 63, 64, 65} {
				ctx := fmt.Sprintf("twoStep=%v workers=%d size=%d", twoStep, w, size)
				fresh := withCache(p, newProjCache(0))
				mustMatchAlone(t, ctx+" cold", fresh.Predict(reqs[:size]...), want[:size])
				mustMatchAlone(t, ctx+" warm", fresh.Predict(reqs[:size]...), want[:size])
				// What the batch stage cached is the single-query projection.
				for i, r := range reqs[:size] {
					f, err := fresh.featureVector(r)
					if err != nil {
						t.Fatal(err)
					}
					proj, maxK, ok := fresh.cache.get(f)
					wantProj, wantK := p.model.ProjectQueryKernel(f)
					if !ok || maxK != wantK || !reflect.DeepEqual(proj, wantProj) {
						t.Fatalf("%s request %d: cached projection differs from ProjectQueryKernel (cached=%v)", ctx, i, ok)
					}
				}
			}
		}
		parallel.SetMaxProcs(1)
	}
}

// TestPredictBatchMixed puts everything awkward in one batch: vectors
// repeated within the batch (adjacent and far apart), a raw-vector request
// equal to a query's, a wrong-dimension vector, an empty request and a
// planless query. Errors stay in their own slots. It runs against an ample
// cache, a cache smaller than the batch (entries are evicted while the batch
// is in flight), a cache whose every fingerprint collides, and no cache, and
// checks the hit/miss counters read as if the requests had come one by one.
func TestPredictBatchMixed(t *testing.T) {
	p, reqs := batchFixture(t, false)
	batch := append([]Request(nil), reqs[:64]...)
	batch[1] = batch[0]
	batch[40] = batch[7]
	batch[63] = batch[2]
	f9, err := p.featureVector(batch[9])
	if err != nil {
		t.Fatal(err)
	}
	batch[10] = Request{Vector: f9}
	batch[20] = Request{Vector: []float64{1, 2, 3}}
	batch[21] = Request{}
	batch[22] = Request{Query: &dataset.Query{SQL: "SELECT 1"}}
	want := alone(p, batch)
	for i, sentinel := range map[int]error{20: ErrDimension, 21: ErrEmptyRequest, 22: ErrNoPlan} {
		if !errors.Is(want[i].Err, sentinel) || want[i].Prediction != nil {
			t.Fatalf("request %d alone: %+v, want %v", i, want[i], sentinel)
		}
	}
	// The pool's own queries repeat plan vectors too, so count the distinct
	// ones instead of assuming.
	distinct := map[uint64]bool{}
	valid := 0
	for _, r := range batch {
		if f, err := p.featureVector(r); err == nil {
			distinct[Fingerprint(f)] = true
			valid++
		}
	}

	defer parallel.SetMaxProcs(parallel.SetMaxProcs(1))
	for _, w := range []int{1, 2, 7, runtime.NumCPU()} {
		parallel.SetMaxProcs(w)
		colliding := newProjCache(0)
		colliding.hash = func([]float64) uint64 { return 42 }
		for name, cache := range map[string]*projCache{
			"ample": newProjCache(0), "tiny": newProjCache(5), "colliding": colliding, "none": nil,
		} {
			ctx := fmt.Sprintf("workers=%d cache=%s", w, name)
			c := withCache(p, cache)
			hits, misses := projHits.Value(), projMisses.Value()
			mustMatchAlone(t, ctx, c.Predict(batch...), want)
			hits, misses = projHits.Value()-hits, projMisses.Value()-misses
			// Every cache starts cold, so each distinct vector is projected
			// once and each repeat is a hit — unless there is no cache to
			// remember a repeat by.
			wantMisses := int64(len(distinct))
			if cache == nil {
				wantMisses = int64(valid)
			}
			if misses != wantMisses || hits+misses != int64(valid) {
				t.Fatalf("%s: %d hits + %d misses, want %d misses of %d lookups", ctx, hits, misses, wantMisses, valid)
			}
			mustMatchAlone(t, ctx+" again", c.Predict(batch...), want)
		}
	}
}

// BenchmarkPredictCold64 is Predictor.Predict on 64-request batches at the
// daemon's shape (800 training queries, automatic rank) with the projection
// cache never hitting except on vectors repeated within a batch: 32 batches
// of distinct queries cycle through a 1024-entry LRU. One op is one batch.
func BenchmarkPredictCold64(b *testing.B) {
	const batch, rounds = 64, 32
	qs := testutil.StockQueries(b, testutil.StockTrain+batch*rounds)
	p, err := Train(qs[:testutil.StockTrain], DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	reqs := make([]Request, batch*rounds)
	for i := range reqs {
		reqs[i].Query = qs[testutil.StockTrain+i]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := (i % rounds) * batch
		for _, r := range p.Predict(reqs[lo : lo+batch]...) {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
}
