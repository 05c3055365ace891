package serve

import (
	"runtime"
	"testing"

	"repro/internal/catalog"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/features"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/sqlparse"
	"repro/internal/testutil"
)

// stockSQL returns the SQL text of n stock boot-workload queries.
func stockSQL(tb testing.TB, n int) []string {
	qs := testutil.StockQueries(tb, n)
	sqls := make([]string, len(qs))
	for i, q := range qs {
		sqls[i] = q.SQL
	}
	return sqls
}

// planMissAllocBound is what one plan-cache miss may allocate, averaged over
// the stock queries: the entry the cache keeps (the query, its feature
// vector, its cost-only plan and its memo, one object) and the caller's
// copy Plan returns — 2.0 — with 2 of headroom for a pool a collection
// empties mid-measurement. The parse tree, the plan tree and the planned
// query come from a pooled workspace the miss hands back. The pipeline
// before the workspace made 14, and the one before that 99.
const planMissAllocBound = 4

// planMissByteBound is what one plan-cache miss may allocate in bytes: the
// entry (416 B) and the caller's copy (176 B), 615 B on average, with
// headroom for the same emptied pool. With the trees allocated per miss it
// was 3.0 KB.
const planMissByteBound = 1 << 10

// TestPlanMissAllocs is the guard on the cold path's allocations: stock SQL
// through the daemon's own planner and a plan cache that is full, so every
// call parses, plans, extracts features and takes over an evicted entry.
func TestPlanMissAllocs(t *testing.T) {
	sqls := stockSQL(t, 512)
	const capacity = 64
	plans := NewPlanner(catalog.TPCDS(1), 3, exec.Research4(), capacity)
	next := 0
	miss := func() {
		if _, err := plans.Plan(sqls[next%len(sqls)]); err != nil {
			t.Fatal(err)
		}
		next++
	}
	for i := 0; i < 2*capacity; i++ { // fill the cache, then start evicting
		miss()
	}
	misses := obs.GetCounter("core.plancache.misses")
	before := misses.Value()
	const runs = 1024
	var start, end runtime.MemStats
	runtime.ReadMemStats(&start)
	got := testing.AllocsPerRun(runs, miss)
	runtime.ReadMemStats(&end)
	if n := misses.Value() - before; n != runs+1 { // AllocsPerRun warms up with one call
		t.Fatalf("%d of %d calls missed; the measurement needs every call to", n, runs+1)
	}
	if plans.Len() != capacity {
		t.Fatalf("cache holds %d entries, want %d", plans.Len(), capacity)
	}
	bytes := float64(end.TotalAlloc-start.TotalAlloc) / (runs + 1)
	t.Logf("plan-cache miss: %.1f allocs, %.0f B", got, bytes)
	if testutil.RaceEnabled {
		t.Skip("race detector enabled; skipping alloc bound")
	}
	if got > planMissAllocBound {
		t.Errorf("a plan-cache miss allocates %.1f objects, bound %d", got, planMissAllocBound)
	}
	if bytes > planMissByteBound {
		t.Errorf("a plan-cache miss allocates %.0f B, bound %d", bytes, planMissByteBound)
	}
}

var featSink []float64

// BenchmarkPlanMissStock splits a plan-cache miss at the daemon's shape
// (stock SQL, TPC-DS sf 1, seed 3, four processors) into its stages, each
// cycling the stock queries: parse, plan, feature extraction, and what the
// cache adds on top of the three when it is full ("cache-put" is the whole
// miss; subtract the stages for the cache's own share).
func BenchmarkPlanMissStock(b *testing.B) {
	sqls := stockSQL(b, 512)
	schema, machine := catalog.TPCDS(1), exec.Research4()
	planner := optimizer.NewPlanner(schema, 3, optimizer.DefaultConfig(machine.Processors))
	qs := make([]*dataset.Query, len(sqls))
	for i, sql := range sqls {
		ast, err := sqlparse.Parse(sql)
		if err != nil {
			b.Fatal(err)
		}
		plan, err := planner.Plan(ast)
		if err != nil {
			b.Fatal(err)
		}
		qs[i] = &dataset.Query{SQL: sql, AST: ast, Plan: plan}
	}
	b.Run("parse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sqlparse.Parse(sqls[i%len(sqls)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("plan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := planner.Plan(qs[i%len(qs)].AST); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("features", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			featSink = features.PlanVector(qs[i%len(qs)].Plan)
		}
	})
	b.Run("cache-put", func(b *testing.B) {
		plans := NewPlanner(schema, 3, machine, 64)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := plans.Plan(sqls[i%len(sqls)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}
