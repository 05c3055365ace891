package core

import (
	"container/list"
	"sync"

	"repro/internal/dataset"
	"repro/internal/features"
	"repro/internal/obs"
)

// Plan-cache metrics: hit rate is the headline number for template
// workloads, where the same SQL text recurs across requests (and every hit
// skips a full parse + optimize pipeline).
var (
	planHits   = obs.GetCounter("core.plancache.hits")
	planMisses = obs.GetCounter("core.plancache.misses")
)

// defaultPlanCacheCap bounds the plan cache. Entries are one parsed AST plus
// one plan tree plus one feature vector (a few KiB); template workloads
// cycle through a bounded set of rendered SQL strings, so this comfortably
// covers them while bounding adversarial churn.
const defaultPlanCacheCap = 4096

// PlanCache memoizes the deterministic SQL → planned-query pipeline — the
// most expensive per-request work left on the serving hot path now that
// prediction itself is microseconds. Parsing and planning a query is pure in
// (SQL, schema, data seed, planner config), so the cache needs no
// invalidation: unlike the per-generation prediction cache, it survives hot
// swaps untouched (plans don't change when the model does) and one cache
// serves the predict path, the observe path, WAL replay, and the shadow
// scorer alike.
//
// A hit returns a shallow copy of the cached prototype: SQL, AST, Plan, and
// the memoized PlanFeat vector are shared read-only, while the struct itself
// is fresh so callers can set Metrics and Category (the observe path does)
// without touching the cache. The prototype's PlanFeat is extracted once at
// insert, so every downstream feature extraction — prediction, window
// retrains, fingerprint routing — skips the plan walk too.
//
// A miss costs what the pipeline allocates for the query it returns and
// nothing for the cache: the prototype is stored by value in its entry, and
// at capacity the evicted entry and its list element are reused for the
// newcomer.
//
// Lookup is by 64-bit FNV-1a over the SQL text, guarded by an exact string
// compare so a fingerprint collision degrades to a miss rather than a wrong
// plan. Plan failures are never cached (errors stay as cheap or expensive as
// the pipeline makes them, and the bounded LRU is not churned by garbage).
// Safe for concurrent use.
type PlanCache struct {
	plan PlanFunc
	// disabled is the capacity<0 passthrough: every Plan call runs the
	// pipeline, nothing is memoized (the honest no-cache baseline).
	disabled bool

	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used; values are *planEntry
	byFP  map[uint64]*list.Element
}

type planEntry struct {
	fp  uint64
	sql string
	// proto is the immutable prototype: exactly what the plan pipeline
	// returned, with PlanFeat memoized. Hits hand out shallow copies.
	proto dataset.Query
}

// NewPlanCache wraps a deterministic plan pipeline in a bounded LRU.
// capacity 0 selects the default; a negative capacity disables caching
// entirely (Plan becomes a passthrough — the uncached baseline for
// benchmarks). The PlanFunc must be pure in the SQL text and must return a
// freshly planned, unexecuted query (Metrics and Category unset), which is
// what every planner in this repository does.
func NewPlanCache(capacity int, plan PlanFunc) *PlanCache {
	c := &PlanCache{plan: plan}
	if capacity < 0 {
		c.disabled = true
		return c
	}
	if capacity == 0 {
		capacity = defaultPlanCacheCap
	}
	c.cap = capacity
	c.order = list.New()
	c.byFP = make(map[uint64]*list.Element)
	return c
}

// Plan returns the planned query for sql, from cache when possible. It is
// itself a PlanFunc, so a cache drops into every seam that takes one (WAL
// replay, snapshot restore, the serving handlers).
func (c *PlanCache) Plan(sql string) (*dataset.Query, error) {
	if c.disabled {
		return c.plan(sql)
	}
	fp := fingerprintString(sql)
	c.mu.Lock()
	if el, found := c.byFP[fp]; found {
		e := el.Value.(*planEntry)
		if e.sql == sql {
			c.order.MoveToFront(el)
			// Copy under the lock: a concurrent miss on the same SQL, or an
			// eviction, overwrites e.proto in put.
			q := e.proto
			c.mu.Unlock()
			planHits.Inc()
			return &q, nil
		}
		// Fingerprint collision: never serve another query's plan.
	}
	c.mu.Unlock()
	planMisses.Inc()
	q, err := c.plan(sql)
	if err != nil {
		return nil, err
	}
	if q.PlanFeat == nil && q.Plan != nil {
		q.PlanFeat = features.PlanVector(q.Plan)
	}
	c.put(fp, sql, q)
	return q, nil
}

// put inserts a copy of q as the prototype for sql, taking over the least
// recently used entry at capacity. At most one SQL string per fingerprint is
// cached; a colliding insert overwrites (the newer query is the one traffic
// is sending).
func (c *PlanCache) put(fp uint64, sql string, q *dataset.Query) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, found := c.byFP[fp]
	switch {
	case found:
	case c.order.Len() >= c.cap:
		el = c.order.Back()
		delete(c.byFP, el.Value.(*planEntry).fp)
		c.byFP[fp] = el
	default:
		el = c.order.PushFront(&planEntry{})
		c.byFP[fp] = el
	}
	e := el.Value.(*planEntry)
	e.fp, e.sql, e.proto = fp, sql, *q
	c.order.MoveToFront(el)
}

// Len reports the current entry count (0 when disabled).
func (c *PlanCache) Len() int {
	if c.disabled {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Enabled reports whether the cache memoizes (false for the capacity<0
// passthrough).
func (c *PlanCache) Enabled() bool { return !c.disabled }

// Cap reports the entry bound (0 when disabled).
func (c *PlanCache) Cap() int {
	if c.disabled {
		return 0
	}
	return c.cap
}

// fingerprintString is FNV-1a over the bytes of a string — the string-keyed
// sibling of Fingerprint, used by the plan cache to key SQL text.
func fingerprintString(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}
