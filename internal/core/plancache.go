package core

import (
	"repro/internal/dataset"
	"repro/internal/features"
	"repro/internal/obs"
	"repro/internal/optimizer"
)

// Plan-cache metrics: hit rate is the headline number for template
// workloads, where the same SQL text recurs across requests (and every hit
// skips a full parse + optimize pipeline).
var (
	planHits   = obs.GetCounter("core.plancache.hits")
	planMisses = obs.GetCounter("core.plancache.misses")
)

// defaultPlanCacheCap bounds the plan cache. An entry is its SQL key and one
// object holding the query, its feature vector, a cost-only plan and the
// entry's memo: about 600 bytes beside the key for a stock statement, the
// LRU's element and the memo's cost bytes included, and under 1 KiB beside
// it for any statement the planner accepts, however deep. Template workloads cycle
// through a bounded set of rendered SQL strings, so this comfortably covers
// them while bounding adversarial churn; the key itself is bounded only by
// the caller.
const defaultPlanCacheCap = 4096

// PlanCache memoizes the deterministic SQL → planned-query pipeline — the
// most expensive per-request work left on the serving hot path now that
// prediction itself is microseconds. Parsing and planning a query is pure in
// (SQL, schema, data seed, planner config), so the cache needs no
// invalidation: unlike the per-generation prediction cache, it survives hot
// swaps untouched (plans don't change when the model does) and one cache
// serves the predict path, the observe path and WAL replay alike.
//
// An entry keeps only what serving reads: the SQL, the memoized PlanFeat
// vector and the optimizer cost, as a cost-only plan (Plan.Root nil), and a
// dataset.PlanMemo holding PlanFeat's Fingerprint and a slot for the cost's
// JSON bytes — one allocation (planEntry). The AST and the plan tree are
// dropped at insert: nothing after planning reads either. When the pipeline
// planned them in a dataset.Workspace (serve.NewPlanner's does), the miss
// hands the workspace back right there, so the next miss parses and plans
// into the same memory and a miss allocates only its entry. PlanFeat and the
// fingerprint are computed once at insert, so every downstream feature
// extraction — prediction, window retrains, fingerprint routing — skips the
// plan walk and the hash.
//
// Each entry is an immutable prototype. Shared hands it out as it is, to
// readers that only read (the predict path), so a hit allocates nothing.
// Plan hands out a shallow copy whose SQL, Plan, PlanFeat and Memo are
// shared read-only, while the struct itself is fresh so callers can set
// Metrics and Category (the observe path does) without touching the cache.
// So the sliding window, WAL replay and snapshot restore, which all plan
// through the cache, hold no trees either.
//
// The key is the SQL text itself. Plan failures are never cached (errors
// stay as cheap or expensive as the pipeline makes them, and the bounded LRU
// is not churned by garbage). Safe for concurrent use.
type PlanCache struct {
	plan PlanFunc
	// protos holds the immutable prototypes: what the plan pipeline
	// returned, with PlanFeat and Memo filled in and the trees dropped. It
	// is nil for the capacity<0 passthrough, where every call runs the
	// pipeline and nothing is memoized (the honest no-cache baseline).
	protos *lru[string, *dataset.Query]
}

// NewPlanCache wraps a deterministic plan pipeline in a bounded LRU.
// capacity 0 selects the default; a negative capacity disables caching
// entirely (Plan becomes a passthrough — the uncached baseline for
// benchmarks). The PlanFunc must be pure in the SQL text and must return a
// freshly planned, unexecuted query (Metrics and Category unset), which is
// what every planner in this repository does. A query it returns with a
// Workspace is released once the entry is made; the passthrough never
// releases one, so give it a pipeline whose trees the caller may keep.
func NewPlanCache(capacity int, plan PlanFunc) *PlanCache {
	c := &PlanCache{plan: plan}
	if capacity < 0 {
		return c
	}
	if capacity == 0 {
		capacity = defaultPlanCacheCap
	}
	c.protos = newLRU[string, *dataset.Query](capacity)
	return c
}

// Plan returns the planned query for sql, from cache when possible, in a
// struct of the caller's own. It is itself a PlanFunc, so a cache drops into
// every seam that takes one (WAL replay, snapshot restore, the serving
// handlers).
func (c *PlanCache) Plan(sql string) (*dataset.Query, error) {
	if c.protos == nil {
		return c.plan(sql)
	}
	proto, err := c.Shared(sql)
	if err != nil {
		return nil, err
	}
	q := *proto
	return &q, nil
}

// Shared returns the planned query for sql like Plan, but as the cache's
// own prototype: the caller must not write to it, and a hit costs a lookup
// and nothing else. Under the passthrough it is Plan.
func (c *PlanCache) Shared(sql string) (*dataset.Query, error) {
	if c.protos == nil {
		return c.plan(sql)
	}
	if proto, ok := c.protos.get(sql); ok {
		planHits.Inc()
		return proto, nil
	}
	planMisses.Inc()
	q, err := c.plan(sql)
	if err != nil {
		return nil, err
	}
	e := &planEntry{q: *q}
	e.q.AST, e.q.Workspace = nil, nil
	if q.Plan != nil {
		if e.q.PlanFeat == nil {
			e.q.PlanFeat = features.PlanVectorInto(&e.feat, q.Plan)
		}
		e.plan.Cost = q.Plan.Cost
		e.q.Plan = &e.plan
		e.memo.Fingerprint = Fingerprint(e.q.PlanFeat)
		e.q.Memo = &e.memo
	}
	q.Workspace.Release()
	c.protos.put(sql, &e.q)
	return &e.q, nil
}

// planEntry is a plan-cache entry in one allocation: the prototype, its
// feature vector, its cost-only plan and its memo.
type planEntry struct {
	q    dataset.Query
	feat [features.PlanVectorLen]float64
	plan optimizer.Plan
	memo dataset.PlanMemo
}

// Len reports the current entry count (0 when disabled).
func (c *PlanCache) Len() int {
	if c.protos == nil {
		return 0
	}
	return c.protos.len()
}

// Enabled reports whether the cache memoizes (false for the capacity<0
// passthrough).
func (c *PlanCache) Enabled() bool { return c.protos != nil }

// Cap reports the entry bound (0 when disabled).
func (c *PlanCache) Cap() int {
	if c.protos == nil {
		return 0
	}
	return c.protos.cap
}
