package testutil

import (
	"strings"
	"testing"

	"repro/internal/statutil"
	"repro/internal/workload"
)

// DistinctStockSQL renders n distinct statements round-robin from the stock
// TPC-DS templates (the shapes the daemon's boot workload draws), skipping
// repeats, so that n plan-cache lookups are n misses.
func DistinctStockSQL(tb testing.TB, n int) []string {
	tb.Helper()
	tpls := workload.TPCDSTemplates()
	rngs := make([]*statutil.RNG, len(tpls))
	for i, t := range tpls {
		rngs[i] = statutil.NewRNG(17, "distinct:"+t.Name)
	}
	seen := make(map[string]bool, n)
	out := make([]string, 0, n)
	for draws := 0; len(out) < n; draws++ {
		if draws > 64*n+1024 {
			tb.Fatalf("templates yielded only %d distinct statements of %d", len(out), n)
		}
		i := draws % len(tpls)
		if sql := tpls[i].Gen(rngs[i]).Render(); !seen[sql] {
			seen[sql] = true
			out = append(out, sql)
		}
	}
	return out
}

// NestedExistsSQL is a hostile statement the parser and planner accept:
// depth levels of uncorrelated EXISTS subqueries, each one SELECT over
// store_sales, about 48 bytes per level. Both recurse once per level, so
// its cost grows with its bytes, not with anything a template would send.
func NestedExistsSQL(depth int) string {
	const open, inner = "SELECT COUNT(*) FROM store_sales WHERE EXISTS (", "SELECT COUNT(*) FROM store_sales"
	var sb strings.Builder
	sb.Grow(depth*(len(open)+1) + len(inner))
	for i := 0; i < depth; i++ {
		sb.WriteString(open)
	}
	sb.WriteString(inner)
	sb.WriteString(strings.Repeat(")", depth))
	return sb.String()
}
