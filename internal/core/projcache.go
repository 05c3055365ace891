package core

import (
	"math"

	"repro/internal/features"
	"repro/internal/obs"
)

// Prediction-cache metrics: hit rate is the headline number for template
// workloads, where the same plan feature vector recurs across queries that
// differ only in constants the plan vector does not encode.
var (
	projHits   = obs.GetCounter("core.projcache.hits")
	projMisses = obs.GetCounter("core.projcache.misses")
)

// defaultProjCacheCap bounds the prediction cache. Entries are one feature
// vector plus one Prediction with its k neighbors (a few hundred bytes);
// template workloads have at most a few hundred distinct plan shapes, so
// this comfortably covers them while bounding adversarial churn.
const defaultProjCacheCap = 1024

// projCache memoizes prediction whole: feature vector → finished Prediction.
// Within one model generation a prediction is a pure function of the feature
// vector — kernel cross vector, projection, neighbor search and combination
// all read only the vector and the immutable model — so a repeated plan is
// answered by a hash of its vector and a struct copy, and none of that work
// runs. (It keeps the name of the projection cache it replaced, and that
// cache's counter names, which the benchmark reads.)
//
// Each cache belongs to exactly one Predictor: it is created with it and
// never survives a retrain, because every cached answer is a function of
// the model (generation swap = cache invalidation; the serving layer's
// generation counter documents this contract), and a WithKNN clone gets its
// own because the answer is a function of the neighbor options too. Lookup
// is by 64-bit FNV-1a over the feature vector's bit patterns, guarded by an
// exact vector comparison so a fingerprint collision degrades to a miss
// rather than a wrong prediction. Bounded LRU (lru), safe for concurrent use.
//
// The cache itself counts nothing: Predictor.predictVectors, which also
// finds vectors repeated within one batch, counts one hit or miss per
// request.
type projCache struct {
	entries *lru[uint64, *projEntry]
	// hash, when set, keys the cache in place of Fingerprint, and in place of
	// a fingerprint a plan-cache entry stored: a test makes vectors collide
	// with it.
	hash func([]float64) uint64
}

// key returns the fingerprint the cache keys f by.
func (c *projCache) key(f []float64) uint64 {
	if c.hash != nil {
		return c.hash(f)
	}
	return Fingerprint(f)
}

// projEntry is immutable once stored: get reads it outside the lock, and put
// replaces an entry rather than writing into it. An entry is one object: a
// plan feature vector is copied into keyBuf, and the memo lives in it too.
type projEntry struct {
	key    []float64  // the feature vector, copied at insert
	pred   Prediction // pred.Neighbors is shared with every caller served: read-only
	memo   Memo
	keyBuf [features.PlanVectorLen]float64
}

func newProjCache(capacity int) *projCache {
	if capacity <= 0 {
		capacity = defaultProjCacheCap
	}
	return &projCache{entries: newLRU[uint64, *projEntry](capacity)}
}

// get returns the cached prediction for f, whose fingerprint (c.key(f)) the
// caller supplies. Keys are the shared template Fingerprint (bit patterns,
// not values — so 0.0 and −0.0 hash apart; the exact compare below uses the
// same equality, keeping hit/miss decisions consistent). The Prediction is
// returned by value, so the caller owns every field but the Neighbors
// backing array and the entry's Memo.
func (c *projCache) get(fp uint64, f []float64) (Prediction, bool) {
	if c == nil {
		return Prediction{}, false
	}
	e, found := c.entries.get(fp)
	if !found || !equalBits(e.key, f) {
		// A fingerprint collision never serves another vector's prediction.
		return Prediction{}, false
	}
	return e.pred, true
}

// put inserts the prediction of f (fingerprint fp), evicting the least
// recently used entry at capacity. f is copied. At most one vector per
// fingerprint is cached: a colliding insert overwrites. The entry gets a
// fresh Memo — the only place one is made — which put returns, so that the
// caller's own copy of pred is the twin of what get will hand out.
func (c *projCache) put(fp uint64, f []float64, pred Prediction) *Memo {
	if c == nil {
		return nil
	}
	e := &projEntry{pred: pred}
	if len(f) <= len(e.keyBuf) {
		e.key = append(e.keyBuf[:0:len(f)], f...)
	} else {
		e.key = append([]float64(nil), f...)
	}
	e.pred.Memo = &e.memo
	c.entries.put(fp, e)
	return e.pred.Memo
}

// len reports the current entry count (for tests).
func (c *projCache) len() int { return c.entries.len() }

func equalBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
