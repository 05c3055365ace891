package serve

import (
	"runtime"
	"testing"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/testutil"
)

// entryOverheadBound is what one plan-cache entry may retain beside its SQL
// key: the feature vector, the cost-only plan, the cached query and the
// LRU's element and map slot.
const entryOverheadBound = 1 << 10

// retainedHeap reports how many bytes of live heap fill leaves behind once
// everything it allocated and dropped is collected. Two collections on each
// side empty the sync.Pools (the second frees the first one's victims).
func retainedHeap(fill func()) int64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	fill()
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	return int64(after.HeapAlloc) - int64(before.HeapAlloc)
}

// TestPlanCacheRetainedBytes bounds what the daemon's plan cache keeps per
// entry: the caller's SQL string, which becomes the key, plus at most
// entryOverheadBound, whatever the statement. The parse tree and plan tree
// a miss builds must not outlive the miss — for the stock templates (a full
// default-size cache) and for a 48 KB nested EXISTS statement, whose trees
// alone run to about a megabyte. The SQL strings exist before the
// measurement starts, so what is measured is everything beside the keys.
func TestPlanCacheRetainedBytes(t *testing.T) {
	plans := NewPlanner(catalog.TPCDS(1), 3, exec.Research4(), 0)
	n := plans.Cap()
	sqls := testutil.DistinctStockSQL(t, n)
	var keys int
	for _, sql := range sqls {
		keys += len(sql)
	}
	got := retainedHeap(func() {
		for _, sql := range sqls {
			if _, err := plans.Plan(sql); err != nil {
				t.Fatal(err)
			}
		}
	})
	runtime.KeepAlive(sqls)
	if plans.Len() != n {
		t.Fatalf("cache holds %d entries, want %d", plans.Len(), n)
	}
	t.Logf("%d stock statements (%d B of keys): %d B retained beside the keys, %.0f B per entry",
		n, keys, got, float64(got)/float64(n))
	if limit := int64(n) * entryOverheadBound; got > limit {
		t.Errorf("%d entries retain %d B beside their keys, bound %d (%d B each)", n, got, limit, entryOverheadBound)
	}

	// One entry's bytes sit close to the noise other live goroutines add to
	// HeapAlloc, so the figure is the least of a few fills, each into a
	// fresh cache; the entry's shape is checked outright as well.
	hostile := testutil.NestedExistsSQL(1000)
	for rep := 0; rep < 3; rep++ {
		one := NewPlanner(catalog.TPCDS(1), 3, exec.Research4(), 0)
		n := retainedHeap(func() {
			if _, err := one.Plan(hostile); err != nil {
				t.Fatal(err)
			}
		})
		if rep == 0 || n < got {
			got = n
		}
		q, err := one.Plan(hostile)
		if err != nil {
			t.Fatal(err)
		}
		if one.Len() != 1 || q.AST != nil || q.Plan.Root != nil {
			t.Fatalf("cache holds %d entries, the hit's AST %v, plan tree %v: want 1, nil, nil",
				one.Len(), q.AST != nil, q.Plan.Root != nil)
		}
	}
	runtime.KeepAlive(hostile)
	t.Logf("nested EXISTS, depth 1000 (%d B key): %d B retained beside the key", len(hostile), got)
	if got > entryOverheadBound {
		t.Errorf("a %d B statement retains %d B beside its key, bound %d", len(hostile), got, entryOverheadBound)
	}
}
