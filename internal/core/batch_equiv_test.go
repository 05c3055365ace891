package core

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/knn"
	"repro/internal/parallel"
	"repro/internal/testutil"
	"repro/internal/workload"
)

// The batch ≡ single suite: Predict on a batch must return, position by
// position, exactly what Predict returns for each request alone on a
// predictor with no cache — prediction or error — whatever the batch size,
// the worker count, the duplicates inside the batch or the state and size of
// the prediction cache.

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
// given prediction cache (nil for none).
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
		if !samePrediction(got[i].Prediction, want[i].Prediction) {
			t.Fatalf("%s request %d: prediction %+v, alone %+v", ctx, i, got[i].Prediction, want[i].Prediction)
		}
	}
}

// samePrediction compares every field of two predictions — metrics,
// category, confidence, and each neighbor's index and distance — with
// floats compared by bit pattern.
func samePrediction(a, b *Prediction) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Category != b.Category || math.Float64bits(a.Confidence) != math.Float64bits(b.Confidence) ||
		!equalBits(a.Metrics.Vector(), b.Metrics.Vector()) || len(a.Neighbors) != len(b.Neighbors) {
		return false
	}
	for i, nb := range a.Neighbors {
		if nb.Index != b.Neighbors[i].Index || math.Float64bits(nb.Distance) != math.Float64bits(b.Neighbors[i].Distance) {
			return false
		}
	}
	return true
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
				// What the batch cached is each request's prediction alone.
				for i, r := range reqs[:size] {
					f, err := fresh.featureVector(r)
					if err != nil {
						t.Fatal(err)
					}
					pred, ok := fresh.cache.get(fresh.cache.key(f), f)
					if !ok || !samePrediction(&pred, want[i].Prediction) {
						t.Fatalf("%s request %d: cached prediction differs from the request alone (cached=%v)", ctx, i, ok)
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

// stockFixture trains once per strategy at the daemon's shape (800 training
// queries, 24 plan features, automatic rank 80) and returns requests for 200
// further queries. The Predictor is shared between tests: take a private
// cache with withCache before predicting through it.
func stockFixture(tb testing.TB, twoStep bool) (*Predictor, []Request) {
	tb.Helper()
	fix := &stockFix[0]
	if twoStep {
		fix = &stockFix[1]
	}
	fix.once.Do(func() {
		qs := testutil.StockQueries(tb, testutil.StockTrain+200)
		opt := DefaultOptions()
		opt.TwoStep = twoStep
		if fix.p, fix.err = Train(qs[:testutil.StockTrain], opt); fix.err != nil {
			return
		}
		for _, q := range qs[testutil.StockTrain:] {
			fix.reqs = append(fix.reqs, Request{Query: q})
		}
	})
	if fix.err != nil {
		tb.Fatal(fix.err)
	}
	return fix.p, fix.reqs
}

// vectorRequests resolves each request's feature vector once, as the
// daemon's plan cache does (dataset.Query.PlanFeat), so that what a test or
// benchmark then measures is Predict and not features.PlanVector.
func vectorRequests(tb testing.TB, p *Predictor, reqs []Request) []Request {
	tb.Helper()
	out := make([]Request, len(reqs))
	for i, r := range reqs {
		f, err := p.featureVector(r)
		if err != nil {
			tb.Fatal(err)
		}
		out[i].Vector = f
	}
	return out
}

var stockFix [2]struct {
	once sync.Once
	p    *Predictor
	reqs []Request
	err  error
}

// TestPredictionCacheMatchesUncached is the cached ≡ uncached proof at the
// daemon's shape: whatever the prediction cache has or has not seen, every
// field of every Prediction equals what a predictor with no cache computes
// for that request alone. Requests arrive singly and in 64-batches with
// repeats inside the batch; a second pass is answered wholly from the cache
// (no vector computed, no index searched); a 4-entry cache churns through
// evictions; every fingerprint collides; and one batch carries a
// wrong-dimension vector and an empty request, whose errors stay in their
// slots and are never cached.
func TestPredictionCacheMatchesUncached(t *testing.T) {
	defer parallel.SetMaxProcs(parallel.SetMaxProcs(2))
	for _, twoStep := range []bool{false, true} {
		p, pool := stockFixture(t, twoStep)
		reqs := append([]Request(nil), pool[:192]...)
		for lo := 0; lo < len(reqs); lo += 64 {
			reqs[lo+1] = reqs[lo]     // adjacent repeat
			reqs[lo+63] = reqs[lo+17] // distant repeat
		}
		reqs[70] = Request{Vector: []float64{1, 2, 3}}
		reqs[71] = Request{}
		want := alone(p, reqs)
		if !errors.Is(want[70].Err, ErrDimension) || !errors.Is(want[71].Err, ErrEmptyRequest) {
			t.Fatalf("alone: %v, %v", want[70].Err, want[71].Err)
		}
		distinct := map[uint64]bool{}
		for _, r := range reqs {
			if f, err := p.featureVector(r); err == nil {
				distinct[Fingerprint(f)] = true
			}
		}

		colliding := newProjCache(0)
		colliding.hash = func([]float64) uint64 { return 42 }
		for name, cache := range map[string]*projCache{"ample": newProjCache(0), "cap4": newProjCache(4), "colliding": colliding} {
			for _, size := range []int{1, 64} {
				ctx := fmt.Sprintf("twoStep=%v cache=%s size=%d", twoStep, name, size)
				c := withCache(p, cache)
				for pass := 0; pass < 2; pass++ {
					misses, searches := projMisses.Value(), p.index.Stats().Searches
					for lo := 0; lo < len(reqs); lo += size {
						mustMatchAlone(t, fmt.Sprintf("%s pass %d at %d", ctx, pass, lo), c.Predict(reqs[lo:lo+size]...), want[lo:lo+size])
					}
					// Once the ample cache has seen every vector, nothing is
					// computed again: no miss, no search.
					warm := name == "ample" && (pass == 1 || size == 64)
					if misses, searches = projMisses.Value()-misses, p.index.Stats().Searches-searches; warm && (misses != 0 || searches != 0) {
						t.Fatalf("%s pass %d: %d misses and %d index searches over cached vectors", ctx, pass, misses, searches)
					}
				}
			}
			switch n := cache.len(); name {
			case "ample":
				if n != len(distinct) {
					t.Fatalf("twoStep=%v: %d entries cached for %d distinct valid vectors: an error was cached or a vector was not", twoStep, n, len(distinct))
				}
			case "cap4":
				if n != 4 {
					t.Fatalf("twoStep=%v: 4-entry cache holds %d", twoStep, n)
				}
			case "colliding":
				if n != 1 {
					t.Fatalf("twoStep=%v: one fingerprint, %d entries", twoStep, n)
				}
			}
		}
	}
}

// TestCachedPredictionIsolation: a caller may overwrite every field of the
// Prediction it was handed — as the two-step path itself overwrites Category
// on a sub-model's answer — and no later answer for the same vector, from the
// cache or from the same batch, shows it. (The Neighbors elements are the one
// shared thing and are documented read-only; replacing the slice is fine.)
func TestCachedPredictionIsolation(t *testing.T) {
	for _, twoStep := range []bool{false, true} {
		p, reqs := batchFixture(t, twoStep)
		want := alone(p, reqs[:1])
		c := withCache(p, newProjCache(0))
		scribble := func(pred *Prediction) {
			pred.Metrics.ElapsedSec = -1
			pred.Metrics.MessageBytes = -1
			pred.Category = workload.WreckingBall
			pred.Confidence = -1
			pred.Neighbors = []knn.Neighbor{{Index: -1, Distance: -1}}
		}
		for round := 0; round < 3; round++ { // a miss, then hits
			got := c.Predict(reqs[0], reqs[0], reqs[0])
			for i := range got {
				mustMatchAlone(t, fmt.Sprintf("twoStep=%v round %d copy %d", twoStep, round, i), got[i:i+1], want)
				for j := range got[:i] {
					if got[i].Prediction == got[j].Prediction {
						t.Fatalf("twoStep=%v round %d: results %d and %d share one Prediction", twoStep, round, j, i)
					}
				}
				scribble(got[i].Prediction)
			}
		}
	}
}

// TestPredictionCacheConcurrent has 8 goroutines predict overlapping slices
// of one request pool through one Predictor — an ample cache and one small
// enough to evict throughout — each checking its answers against the
// uncached oracle. Run under -race it is the proof that hits, inserts and
// evictions may interleave freely.
func TestPredictionCacheConcurrent(t *testing.T) {
	p, reqs := stockFixture(t, false)
	want := alone(p, reqs)
	for name, cache := range map[string]*projCache{"ample": newProjCache(0), "cap16": newProjCache(16)} {
		c := withCache(p, cache)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for round := 0; round < 6; round++ {
					lo := (g*16 + round*24) % (len(reqs) - 64)
					got := c.Predict(reqs[lo : lo+64]...)
					for i := range got {
						if got[i].Err != nil || !samePrediction(got[i].Prediction, want[lo+i].Prediction) {
							t.Errorf("cache=%s goroutine %d round %d request %d: %+v (err %v), alone %+v",
								name, g, round, lo+i, got[i].Prediction, got[i].Err, want[lo+i].Prediction)
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

// TestPredictHotAllocs: a 64-request batch answered wholly from the
// prediction cache allocates a small constant per call — the results and the
// prediction slab; the batch items are pooled — and nothing per query.
func TestPredictHotAllocs(t *testing.T) {
	p, reqs := stockFixture(t, false)
	c := withCache(p, newProjCache(0))
	batch := vectorRequests(t, p, reqs[:64])
	c.Predict(batch...)
	misses := projMisses.Value()
	allocs := testing.AllocsPerRun(100, func() {
		if r := c.Predict(batch...); r[63].Err != nil {
			t.Fatal(r[63].Err)
		}
	})
	if projMisses.Value() != misses {
		t.Fatal("the warm batch missed the cache")
	}
	t.Logf("all-hit 64-batch: %.1f allocs per Predict call", allocs)
	if testutil.RaceEnabled {
		t.Skip("race detector enabled; skipping alloc bound")
	}
	if allocs > 3 {
		t.Errorf("an all-hit 64-batch allocates %.1f per call, bound 3", allocs)
	}
}

// predictColdByteBound is what a cold 64-query Predict may allocate per
// query with no prediction cache to insert into: its share of the call's
// prediction and result slabs and its neighbour list — 230 B, 966 while
// each projection and each combined metrics vector was its own allocation —
// with headroom for a pool a collection empties. A projection (80 floats, 640 B) allocated per query
// would exceed it on its own.
const predictColdByteBound = 512

// TestPredictColdBytes is the guard on a cold batch's garbage: 64 distinct
// vectors, every one projected and searched, on the stock model. The
// projections are rows of a pooled slab that Predict hands back.
func TestPredictColdBytes(t *testing.T) {
	p, reqs := stockFixture(t, false)
	bare := withCache(p, nil)
	vecs := vectorRequests(t, p, reqs[:3*64])
	predict := func(k int) {
		for _, r := range bare.Predict(vecs[k%3*64 : k%3*64+64]...) {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
		}
	}
	predict(0) // fill the pools
	const calls = 30
	misses := projMisses.Value()
	var start, end runtime.MemStats
	runtime.ReadMemStats(&start)
	for k := 0; k < calls; k++ {
		predict(k)
	}
	runtime.ReadMemStats(&end)
	if n := projMisses.Value() - misses; n != calls*64 {
		t.Fatalf("%d of %d vectors computed", n, calls*64)
	}
	perQuery := float64(end.TotalAlloc-start.TotalAlloc) / (calls * 64)
	t.Logf("cold 64-query Predict: %.0f B per query", perQuery)
	if testutil.RaceEnabled {
		t.Skip("race detector enabled; skipping byte bound")
	}
	if perQuery > predictColdByteBound {
		t.Errorf("a cold 64-query Predict allocates %.0f B per query, bound %d", perQuery, predictColdByteBound)
	}
}

// BenchmarkPredictCold64 is Predictor.Predict on 64-request batches at the
// daemon's shape (800 training queries, automatic rank) with the prediction
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

// BenchmarkPredictHot64 is the same call with the prediction cache always
// hitting: 64-request batches drawn from a 200-vector pool the cache has
// seen, as on the bench's batch-hot workload. One op is one batch; ns/query
// and allocs/query are per request.
func BenchmarkPredictHot64(b *testing.B) {
	const batch = 64
	p, reqs := stockFixture(b, false)
	reqs = vectorRequests(b, p, reqs)
	c := withCache(p, newProjCache(0))
	c.Predict(reqs...)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := (i * 37) % (len(reqs) - batch)
		for _, r := range c.Predict(reqs[lo : lo+batch]...) {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/query")
	b.ReportMetric(float64(ms.Mallocs-mallocs)/float64(b.N*batch), "allocs/query")
}
