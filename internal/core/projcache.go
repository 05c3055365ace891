package core

import (
	"container/list"
	"math"
	"sync"

	"repro/internal/obs"
)

// Projection-cache metrics: hit rate is the headline number for template
// workloads, where the same plan feature vector recurs across queries that
// differ only in constants the plan vector does not encode.
var (
	projHits   = obs.GetCounter("core.projcache.hits")
	projMisses = obs.GetCounter("core.projcache.misses")
)

// defaultProjCacheCap bounds the projection cache. Entries are one feature
// vector plus one coordinate vector (a few hundred bytes); template
// workloads have at most a few hundred distinct plan shapes, so this
// comfortably covers them while bounding adversarial churn.
const defaultProjCacheCap = 1024

// projCache memoizes the expensive front half of prediction: feature vector
// → (canonical projection, max raw kernel similarity). Projecting a query is
// O(N·d) in the training-set size (the kernel cross vector dominates), while
// a cache hit is a hash of the feature vector — so repeated plans skip the
// kernel work entirely.
//
// Each cache belongs to exactly one model generation: it is created with its
// Predictor and never survives a retrain, because the projection space
// itself changes when the model does (generation swap = cache invalidation;
// the serving layer's generation counter documents this contract). Lookup is
// by 64-bit FNV-1a over the feature vector's bit patterns, guarded by an
// exact vector comparison so a fingerprint collision degrades to a miss
// rather than a wrong prediction. Bounded LRU, safe for concurrent use.
//
// The cache itself counts nothing: Predictor.project, which also finds
// vectors repeated within one batch, counts one hit or miss per request.
type projCache struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used; values are *projEntry
	byFP  map[uint64]*list.Element
	// hash is Fingerprint; a field so a test can make vectors collide.
	hash func([]float64) uint64
}

type projEntry struct {
	fp   uint64
	key  []float64 // the feature vector, copied at insert
	proj []float64 // cached canonical coordinates (read-only once cached)
	maxK float64
}

func newProjCache(capacity int) *projCache {
	if capacity <= 0 {
		capacity = defaultProjCacheCap
	}
	return &projCache{cap: capacity, order: list.New(), byFP: make(map[uint64]*list.Element), hash: Fingerprint}
}

// get returns the cached projection for f, if present. Keys are the shared
// template Fingerprint (bit patterns, not values — so 0.0 and −0.0 hash
// apart; the exact compare below uses the same equality, keeping hit/miss
// decisions consistent). The returned slices are shared and must be treated
// as read-only by callers.
func (c *projCache) get(f []float64) (proj []float64, maxK float64, ok bool) {
	if c == nil {
		return nil, 0, false
	}
	fp := c.hash(f)
	c.mu.Lock()
	defer c.mu.Unlock()
	el, found := c.byFP[fp]
	if !found {
		return nil, 0, false
	}
	e := el.Value.(*projEntry)
	if !equalBits(e.key, f) {
		// Fingerprint collision: never serve another vector's projection.
		return nil, 0, false
	}
	c.order.MoveToFront(el)
	return e.proj, e.maxK, true
}

// put inserts the projection of f, evicting the least recently used entry
// at capacity. proj is stored as given (the caller hands over ownership);
// f is copied.
func (c *projCache) put(f, proj []float64, maxK float64) {
	if c == nil {
		return
	}
	fp := c.hash(f)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, found := c.byFP[fp]; found {
		// Already present (or a colliding fingerprint — overwrite either
		// way; at most one vector per fingerprint is cached).
		e := el.Value.(*projEntry)
		e.key = append(e.key[:0], f...)
		e.proj = proj
		e.maxK = maxK
		c.order.MoveToFront(el)
		return
	}
	for c.order.Len() >= c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.byFP, oldest.Value.(*projEntry).fp)
	}
	e := &projEntry{fp: fp, key: append([]float64(nil), f...), proj: proj, maxK: maxK}
	c.byFP[fp] = c.order.PushFront(e)
}

// len reports the current entry count (for tests).
func (c *projCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

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
