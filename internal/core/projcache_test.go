package core

import (
	"testing"

	"repro/internal/knn"
)

// testPred is a distinguishable Prediction for the cache's own unit tests.
func testPred(x float64) Prediction {
	return Prediction{Confidence: x, Neighbors: []knn.Neighbor{{Index: int(x)}}}
}

func TestProjCacheBasic(t *testing.T) {
	c := newProjCache(4)
	f := []float64{1, 2, 3}
	if _, ok := c.get(c.key(f), f); ok {
		t.Fatal("hit on empty cache")
	}
	c.put(c.key(f), f, testPred(9))
	pred, ok := c.get(c.key(f), f)
	if !ok || pred.Confidence != 9 || len(pred.Neighbors) != 1 || pred.Neighbors[0].Index != 9 {
		t.Fatalf("get = %+v, %v", pred, ok)
	}
	// A different vector of the same length must miss.
	g := []float64{1, 2, 4}
	if _, ok := c.get(c.key(g), g); ok {
		t.Fatal("hit for a vector that was never cached")
	}
	// The key is a copy: the caller may reuse its vector.
	f[0] = 7
	if _, ok := c.get(c.key(f), f); ok {
		t.Fatal("hit after the caller changed the vector it inserted")
	}
}

func TestProjCacheLRUEviction(t *testing.T) {
	c := newProjCache(3)
	vecs := [][]float64{{1}, {2}, {3}, {4}}
	hit := func(f []float64) bool {
		_, ok := c.get(c.key(f), f)
		return ok
	}
	for i, f := range vecs[:3] {
		c.put(c.key(f), f, testPred(float64(i)))
	}
	// Touch {1} so {2} becomes the eviction victim.
	if !hit(vecs[0]) {
		t.Fatal("expected hit for {1}")
	}
	c.put(c.key(vecs[3]), vecs[3], testPred(3))
	if c.len() != 3 {
		t.Fatalf("len = %d, want 3", c.len())
	}
	if hit(vecs[1]) {
		t.Fatal("{2} should have been evicted as least recently used")
	}
	for _, f := range [][]float64{vecs[0], vecs[2], vecs[3]} {
		if !hit(f) {
			t.Fatalf("expected %v to survive eviction", f)
		}
	}
}

func TestProjCacheNilSafe(t *testing.T) {
	var c *projCache
	c.put(1, []float64{1}, testPred(2)) // must not panic
	if _, ok := c.get(1, []float64{1}); ok {
		t.Fatal("nil cache cannot hit")
	}
}

// TestPredictCacheEquivalence checks the user-visible contract: repeating a
// prediction must return identical results served from the cache, and the
// hit counter must move.
func TestPredictCacheEquivalence(t *testing.T) {
	train, test := trainTest(t)
	p, err := Train(train, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	q := test[0]
	first, err := p.PredictQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	hitsBefore := projHits.Value()
	second, err := p.PredictQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if projHits.Value() == hitsBefore {
		t.Error("repeated prediction did not hit the prediction cache")
	}
	if first.Metrics != second.Metrics || first.Confidence != second.Confidence ||
		first.Category != second.Category {
		t.Errorf("cached prediction differs: %+v vs %+v", first, second)
	}
	if len(first.Neighbors) != len(second.Neighbors) {
		t.Fatalf("neighbor counts differ: %d vs %d", len(first.Neighbors), len(second.Neighbors))
	}
	for i := range first.Neighbors {
		if first.Neighbors[i] != second.Neighbors[i] {
			t.Errorf("neighbor %d differs: %+v vs %+v", i, first.Neighbors[i], second.Neighbors[i])
		}
	}
}

// TestRetrainSwapsCacheGeneration checks that a retrain publishes a new
// predictor with its own (empty) cache — stale predictions from the old
// model generation can never be served by the new one.
func TestRetrainSwapsCacheGeneration(t *testing.T) {
	ds := pool(t)
	s, err := NewSliding(60, 30, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range ds.Queries[:30] {
		if err := s.Observe(q); err != nil {
			t.Fatal(err)
		}
	}
	gen1 := s.Current()
	if _, err := s.PredictQuery(ds.Queries[100]); err != nil {
		t.Fatal(err)
	}
	if gen1.cache.len() == 0 {
		t.Fatal("prediction did not populate the generation's cache")
	}
	for _, q := range ds.Queries[30:60] {
		if err := s.Observe(q); err != nil {
			t.Fatal(err)
		}
	}
	gen2 := s.Current()
	if gen2 == gen1 {
		t.Fatal("retrain did not publish a new predictor generation")
	}
	if gen2.cache == gen1.cache {
		t.Fatal("new generation shares the old generation's prediction cache")
	}
	if gen2.cache.len() != 0 {
		t.Errorf("new generation's cache should start empty, has %d entries", gen2.cache.len())
	}
}

// TestWithKNNDoesNotShareCache: a cached Prediction is a function of the
// k-NN options, so a WithKNN clone must not read (or feed) its parent's
// cache. The same vectors go through the parent, a K=1 clone, a K=7
// distance-weighted clone and a cosine clone, then the parent again; each
// answer equals an uncached predictor's with those options, bit for bit.
func TestWithKNNDoesNotShareCache(t *testing.T) {
	parent, reqs := batchFixture(t, false)
	parent = withCache(parent, newProjCache(0))
	reqs = reqs[:40]
	check := func(name string, p *Predictor) {
		t.Helper()
		want := alone(p, reqs)
		mustMatchAlone(t, name+" cold", p.Predict(reqs...), want)
		mustMatchAlone(t, name+" warm", p.Predict(reqs...), want)
	}
	check("parent", parent)
	for name, opt := range map[string]knn.Options{
		"k=1":           {K: 1, Distance: knn.Euclidean, Weighting: knn.EqualWeight},
		"k=7 weighted":  {K: 7, Distance: knn.Euclidean, Weighting: knn.DistanceWeight},
		"k=3 by cosine": {K: 3, Distance: knn.Cosine, Weighting: knn.EqualWeight},
	} {
		clone := parent.WithKNN(opt)
		if clone.cache == nil || clone.cache == parent.cache || clone.cache.len() != 0 {
			t.Fatalf("%s: clone must start with an empty cache of its own", name)
		}
		check(name, clone)
	}
	check("parent again", parent)
}

// TestMemoFollowsTheCacheEntry pins the Memo contract the serving layer's
// fragment cache rests on: a prediction carries the memo of the cache entry
// it equals — from the insert on, batched, repeated within a batch or alone
// — and different vectors different ones; no cache, no memo; an overwritten
// entry gets a new one; and a two-step answer, whose Category is the
// parent's vote written over a sub-model's cached prediction, carries the
// parent's entry's memo, never the sub-model's.
func TestMemoFollowsTheCacheEntry(t *testing.T) {
	for _, twoStep := range []bool{false, true} {
		p, reqs := batchFixture(t, twoStep)
		p = withCache(p, newProjCache(0))
		for _, sub := range p.sub { // fresh sub-model caches too
			sub.cache = newProjCache(0)
		}
		reqs = reqs[:12]
		twice := append(reqs[:12:12], reqs...)
		entryMemo := func(c *Predictor, r Request) *Memo {
			f, _ := c.featureVector(r)
			entry, _ := c.cache.get(c.cache.key(f), f)
			return entry.Memo
		}
		memos := map[*Memo]bool{}
		check := func(pass string, c *Predictor, reqs ...Request) {
			t.Helper()
			for i, r := range c.Predict(reqs...) {
				m := r.Prediction.Memo
				if m == nil || m != entryMemo(c, reqs[i]) {
					t.Fatalf("twoStep=%v %s request %d: memo %p, the cache entry's %p", twoStep, pass, i, m, entryMemo(c, reqs[i]))
				}
				for _, sub := range c.sub {
					if m == entryMemo(sub, reqs[i]) {
						t.Fatalf("twoStep=%v %s request %d: parent and sub-model share a memo", twoStep, pass, i)
					}
				}
				memos[m] = true
			}
		}
		check("computed", p, twice...)
		check("cached", p, twice...)
		for _, r := range reqs {
			check("alone", p, r)
		}
		distinct := map[uint64]bool{}
		for _, r := range reqs {
			f, _ := p.featureVector(r)
			distinct[Fingerprint(f)] = true
		}
		if len(memos) != len(distinct) {
			t.Fatalf("twoStep=%v: %d memos for %d distinct vectors", twoStep, len(memos), len(distinct))
		}

		// With the parent's cache emptied and the sub-models' still warm, a
		// two-step answer is a sub-model's cached prediction with its
		// Category overwritten: it must leave with the parent's new entry's
		// memo, not the sub-model's.
		check("sub-models warm", withCache(p, newProjCache(0)), twice...)
		for i, r := range withCache(p, nil).Predict(twice...) {
			if r.Prediction.Memo != nil {
				t.Fatalf("twoStep=%v request %d: a memo without a cache", twoStep, i)
			}
		}

		// Overwriting an entry replaces its memo: bytes filled from the old
		// prediction must not outlive it.
		old := entryMemo(p, reqs[0])
		f, _ := p.featureVector(reqs[0])
		if m := p.cache.put(p.cache.key(f), f, testPred(1)); m == nil || m == old || m != entryMemo(p, reqs[0]) {
			t.Fatalf("twoStep=%v: an overwritten entry kept its memo", twoStep)
		}
		// A clone with other neighbor options answers from its own entries.
		clone := p.WithKNN(knn.Options{K: 1, Distance: knn.Euclidean, Weighting: knn.EqualWeight})
		if m := clone.Predict(reqs[1])[0].Prediction.Memo; m == nil || memos[m] {
			t.Fatalf("twoStep=%v: a WithKNN clone hands out its parent's memo", twoStep)
		}
	}
}

// BenchmarkPredictVector measures single-query prediction with the
// prediction cache hitting (repeated plan) versus disabled (every call pays
// the O(N·d) kernel cross vector and the neighbor search). CI's bench-smoke
// job runs it at 100 iterations.
func BenchmarkPredictVector(b *testing.B) {
	train, test := trainTest(b)
	p, err := Train(train, DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	f, err := queryFeature(test[0], PlanFeatures)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("cached", func(b *testing.B) {
		if _, err := p.PredictVector(f); err != nil { // prime the cache
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := p.PredictVector(f); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("uncached", func(b *testing.B) {
		bare := *p
		bare.cache = nil
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := bare.PredictVector(f); err != nil {
				b.Fatal(err)
			}
		}
	})
}
