package core

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/optimizer"
	"repro/internal/sqlparse"
	"repro/internal/workload"
)

// testPlanFunc is the deterministic parse + optimize pipeline the serving
// layer runs, rebuilt here so the core tests exercise the cache against the
// real planner without importing the serve package.
func testPlanFunc() PlanFunc {
	schema := catalog.TPCDS(1)
	planCfg := optimizer.DefaultConfig(exec.Research4().Processors)
	return func(sql string) (*dataset.Query, error) {
		ast, err := sqlparse.Parse(sql)
		if err != nil {
			return nil, err
		}
		plan, err := optimizer.BuildPlan(ast, schema, 3, planCfg)
		if err != nil {
			return nil, err
		}
		return &dataset.Query{SQL: sql, AST: ast, Plan: plan}, nil
	}
}

func TestPlanCacheBasic(t *testing.T) {
	c := NewPlanCache(8, testPlanFunc())
	sql := pool(t).Queries[0].SQL
	missesBefore, hitsBefore := planMisses.Value(), planHits.Value()
	q1, err := c.Plan(sql)
	if err != nil {
		t.Fatal(err)
	}
	if q1.PlanFeat == nil {
		t.Fatal("miss did not memoize the plan feature vector")
	}
	if planMisses.Value() != missesBefore+1 {
		t.Error("first Plan did not count a miss")
	}
	q2, err := c.Plan(sql)
	if err != nil {
		t.Fatal(err)
	}
	if planHits.Value() != hitsBefore+1 {
		t.Error("second Plan did not count a hit")
	}
	if q2 == q1 {
		t.Fatal("hit returned the same *Query — callers would share Metrics/Category")
	}
	// Hit and miss return the same prototype: the cost-only plan is shared,
	// and neither carries the AST or the plan tree.
	if q2.Plan != q1.Plan {
		t.Error("hit did not share the miss's cost-only plan")
	}
	if q1.AST != nil || q2.AST != nil || q1.Plan.Root != nil || q2.Plan.Root != nil {
		t.Error("the cache kept the AST or the plan tree")
	}
	fresh, err := testPlanFunc()(sql)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(q2.Plan.Cost) != math.Float64bits(fresh.Plan.Cost) {
		t.Errorf("cached cost %v, pipeline's %v", q2.Plan.Cost, fresh.Plan.Cost)
	}
	if !equalBits(q1.PlanFeat, q2.PlanFeat) {
		t.Errorf("feature vectors differ across hit: %v vs %v", q1.PlanFeat, q2.PlanFeat)
	}
	// The observe path mutates its copy; the prototype must stay clean.
	q2.Metrics = exec.Metrics{ElapsedSec: 42}
	q2.Category = workload.WreckingBall
	q3, err := c.Plan(sql)
	if err != nil {
		t.Fatal(err)
	}
	if q3.Metrics != (exec.Metrics{}) || q3.Category != workload.Category(0) {
		t.Error("a caller's mutation leaked into the cached prototype")
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
}

func TestPlanCacheLRUEviction(t *testing.T) {
	qs := pool(t).Queries
	c := NewPlanCache(2, testPlanFunc())
	sqls := []string{qs[0].SQL, qs[1].SQL, qs[2].SQL}
	for _, s := range sqls[:2] {
		if _, err := c.Plan(s); err != nil {
			t.Fatal(err)
		}
	}
	// Touch sqls[0] so sqls[1] becomes the eviction victim.
	if _, err := c.Plan(sqls[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Plan(sqls[2]); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	misses := planMisses.Value()
	if _, err := c.Plan(sqls[1]); err != nil {
		t.Fatal(err)
	}
	if planMisses.Value() != misses+1 {
		t.Error("evicted entry should miss")
	}
}

func TestPlanCacheDisabled(t *testing.T) {
	c := NewPlanCache(-1, testPlanFunc())
	if c.Enabled() {
		t.Fatal("negative capacity should disable the cache")
	}
	sql := pool(t).Queries[0].SQL
	q, err := c.Plan(sql)
	if err != nil {
		t.Fatal(err)
	}
	if q.PlanFeat != nil {
		t.Error("disabled cache must not memoize features (honest uncached baseline)")
	}
	if _, err := c.Plan(sql); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 0 {
		t.Errorf("disabled cache Len = %d, want 0", c.Len())
	}
}

func TestPlanCacheErrorsNotCached(t *testing.T) {
	calls := 0
	c := NewPlanCache(8, func(sql string) (*dataset.Query, error) {
		calls++
		return nil, fmt.Errorf("boom %d", calls)
	})
	for want := 1; want <= 3; want++ {
		_, err := c.Plan("SELECT broken")
		if err == nil {
			t.Fatal("expected error")
		}
		if calls != want {
			t.Fatalf("call %d: plan func ran %d times (error was cached?)", want, calls)
		}
	}
	if c.Len() != 0 {
		t.Errorf("Len = %d after errors, want 0", c.Len())
	}
}

// TestPlanCachePredictionEquivalence is the headline contract: a prediction
// made from a cache-hit query is bit-identical to one made from a freshly
// planned query — same metrics bits, confidence, category, neighbors.
func TestPlanCachePredictionEquivalence(t *testing.T) {
	train, test := trainTest(t)
	p, err := Train(train, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	plan := testPlanFunc()
	c := NewPlanCache(0, plan)
	for _, q := range test {
		fresh, err := plan(q.SQL)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Plan(q.SQL); err != nil { // populate
			t.Fatal(err)
		}
		hit, err := c.Plan(q.SQL) // served from cache
		if err != nil {
			t.Fatal(err)
		}
		prFresh, err := p.PredictQuery(fresh)
		if err != nil {
			t.Fatal(err)
		}
		prHit, err := p.PredictQuery(hit)
		if err != nil {
			t.Fatal(err)
		}
		if !metricsBitsEqual(prFresh.Metrics, prHit.Metrics) {
			t.Errorf("%s: cached prediction metrics differ: %+v vs %+v", q.Template, prFresh.Metrics, prHit.Metrics)
		}
		if math.Float64bits(prFresh.Confidence) != math.Float64bits(prHit.Confidence) {
			t.Errorf("%s: confidence differs: %v vs %v", q.Template, prFresh.Confidence, prHit.Confidence)
		}
		if prFresh.Category != prHit.Category {
			t.Errorf("%s: category differs: %v vs %v", q.Template, prFresh.Category, prHit.Category)
		}
		for i := range prFresh.Neighbors {
			if prFresh.Neighbors[i] != prHit.Neighbors[i] {
				t.Errorf("%s: neighbor %d differs", q.Template, i)
			}
		}
	}
}

// TestPlanCacheObserveEquivalence feeds two sliding predictors the same
// observation stream — one through cache-planned queries, one through fresh
// plans — and checks the published models predict bit-identically after the
// same retrains. The cache is generation-independent: it survives every hot
// swap untouched.
func TestPlanCacheObserveEquivalence(t *testing.T) {
	ds := pool(t)
	plan := testPlanFunc()
	c := NewPlanCache(0, plan)

	mk := func() *SlidingPredictor {
		s, err := NewSliding(60, 30, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	cached, fresh := mk(), mk()
	for i, q := range ds.Queries[:90] {
		qc, err := c.Plan(q.SQL)
		if err != nil {
			t.Fatal(err)
		}
		qf, err := plan(q.SQL)
		if err != nil {
			t.Fatal(err)
		}
		for _, pair := range []struct {
			s *SlidingPredictor
			q *dataset.Query
		}{{cached, qc}, {fresh, qf}} {
			pair.q.Metrics = q.Metrics
			pair.q.Category = workload.Categorize(q.Metrics.ElapsedSec)
			if err := pair.s.Observe(pair.q); err != nil {
				t.Fatalf("observe %d: %v", i, err)
			}
		}
	}
	if cached.Retrains() != fresh.Retrains() {
		t.Fatalf("retrain counts diverge: %d vs %d", cached.Retrains(), fresh.Retrains())
	}
	if cached.Retrains() < 2 {
		t.Fatalf("want ≥2 retrains (hot swaps) during the stream, got %d", cached.Retrains())
	}
	for _, q := range ds.Queries[90:110] {
		qq, err := c.Plan(q.SQL)
		if err != nil {
			t.Fatal(err)
		}
		prC, err := cached.PredictQuery(qq)
		if err != nil {
			t.Fatal(err)
		}
		prF, err := fresh.PredictQuery(qq)
		if err != nil {
			t.Fatal(err)
		}
		if !metricsBitsEqual(prC.Metrics, prF.Metrics) {
			t.Errorf("post-swap predictions diverge for %s: %+v vs %+v", q.Template, prC.Metrics, prF.Metrics)
		}
	}
}

// TestPlanCacheConcurrent hammers one cache from concurrent predict-style
// and observe-style users while a sliding predictor retrains — the -race
// exercise for the "one cache serves every path" design.
func TestPlanCacheConcurrent(t *testing.T) {
	ds := pool(t)
	c := NewPlanCache(16, testPlanFunc()) // small: force concurrent evictions
	s, err := NewSliding(60, 30, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range ds.Queries[:30] {
		if err := s.Observe(q); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) { // predictors
			defer wg.Done()
			for i := 0; i < 60; i++ {
				q, err := c.Plan(ds.Queries[(w*17+i)%len(ds.Queries)].SQL)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := s.PredictQuery(q); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() { // observer: drives retrains (hot swaps) under load
		defer wg.Done()
		for _, src := range ds.Queries[30:150] {
			q, err := c.Plan(src.SQL)
			if err != nil {
				t.Error(err)
				return
			}
			q.Metrics = src.Metrics
			q.Category = workload.Categorize(q.Metrics.ElapsedSec)
			if err := s.Observe(q); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if s.Retrains() < 3 {
		t.Errorf("want retrains under concurrent load, got %d", s.Retrains())
	}
}

func metricsBitsEqual(a, b exec.Metrics) bool {
	av := []float64{a.ElapsedSec, a.RecordsAccessed, a.RecordsUsed, a.DiskIOs, a.MessageCount, a.MessageBytes}
	bv := []float64{b.ElapsedSec, b.RecordsAccessed, b.RecordsUsed, b.DiskIOs, b.MessageCount, b.MessageBytes}
	return equalBits(av, bv)
}

// BenchmarkPlanCache measures the SQL → planned-query pipeline with the
// cache hitting versus disabled — the per-request planning cost the serving
// hot path pays. Feeds BENCH_serve.json.
func BenchmarkPlanCache(b *testing.B) {
	sql := pool(b).Queries[0].SQL
	b.Run("hit", func(b *testing.B) {
		c := NewPlanCache(0, testPlanFunc())
		if _, err := c.Plan(sql); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Plan(sql); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("uncached", func(b *testing.B) {
		c := NewPlanCache(-1, testPlanFunc())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Plan(sql); err != nil {
				b.Fatal(err)
			}
		}
	})
}
