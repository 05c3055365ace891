package optimizer

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/catalog"
	"repro/internal/sqlgen"
	"repro/internal/sqlparse"
)

var testSchema = catalog.TPCDS(1)

func mustPlanSQL(t *testing.T, sql string, procs int) *Plan {
	t.Helper()
	q, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	p, err := BuildPlan(q, testSchema, 7, DefaultConfig(procs))
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("invalid plan: %v\n%s", err, p.Root)
	}
	return p
}

func TestPlanSimpleScan(t *testing.T) {
	p := mustPlanSQL(t, "SELECT COUNT(*) FROM store_sales WHERE ss_quantity BETWEEN 1 AND 50", 4)
	counts := p.Root.CountOps()
	if counts[OpFileScan] != 1 || counts[OpRoot] != 1 || counts[OpExchange] != 1 || counts[OpScalarAgg] != 1 {
		t.Errorf("op counts wrong: %v", counts)
	}
	scan := p.Root.Scans()[0]
	if scan.Table != "store_sales" {
		t.Errorf("scan table = %q", scan.Table)
	}
	if scan.EstRowsIn != 2880404 || scan.ActRowsIn != 2880404 {
		t.Errorf("scan input cards wrong: est=%v act=%v", scan.EstRowsIn, scan.ActRowsIn)
	}
	// BETWEEN 1 AND 50 covers about half the quantity domain.
	if scan.ActRows < 0.2*scan.ActRowsIn || scan.ActRows > 0.9*scan.ActRowsIn {
		t.Errorf("range selectivity implausible: %v of %v", scan.ActRows, scan.ActRowsIn)
	}
	if p.Cost <= 0 {
		t.Errorf("cost = %v, want positive", p.Cost)
	}
}

func TestPlanSeedChangesActuals(t *testing.T) {
	q, err := sqlparse.Parse("SELECT COUNT(*) FROM store_sales WHERE ss_item_sk = 77")
	if err != nil {
		t.Fatal(err)
	}
	pa, err := BuildPlan(q, testSchema, 1, DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	pb, err := BuildPlan(q, testSchema, 2, DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	sa, sb := pa.Root.Scans()[0], pb.Root.Scans()[0]
	if sa.EstRows != sb.EstRows {
		t.Errorf("estimates should not depend on the data seed: %v vs %v", sa.EstRows, sb.EstRows)
	}
	if sa.ActRows == sb.ActRows {
		t.Error("different data realizations should differ in actuals for a skewed column")
	}
}

func TestFKJoinCardinality(t *testing.T) {
	// store_sales join item on the item FK: output should be close to the
	// store_sales row count (every sale matches exactly one item).
	p := mustPlanSQL(t, "SELECT COUNT(*) FROM store_sales, item WHERE ss_item_sk = i_item_sk", 4)
	var join *Node
	p.Root.Walk(func(n *Node) {
		if n.Op == OpHashJoin || n.Op == OpNestedJoin {
			join = n
		}
	})
	if join == nil {
		t.Fatal("no join in plan:\n" + p.Root.String())
	}
	ss := float64(testSchema.Table("store_sales").RowCount)
	if join.EstRows < 0.5*ss || join.EstRows > 2*ss {
		t.Errorf("FK join estimate %v, want around %v", join.EstRows, ss)
	}
}

func TestBroadcastVsHashJoin(t *testing.T) {
	// item (18k rows filtered) joined to store_sales: the filtered inner is
	// small, so a broadcast nested join is expected on a 4-way config.
	p := mustPlanSQL(t, "SELECT COUNT(*) FROM store_sales, item WHERE ss_item_sk = i_item_sk AND i_category = 'v3'", 4)
	counts := p.Root.CountOps()
	if counts[OpNestedJoin] != 1 {
		t.Errorf("expected broadcast nested join, got ops %v\n%s", counts, p.Root)
	}
	// A fact-fact join has a large inner: hash join.
	p2 := mustPlanSQL(t, "SELECT COUNT(*) FROM store_sales, store_returns WHERE ss_ticket_number = sr_ticket_number", 4)
	counts2 := p2.Root.CountOps()
	if counts2[OpHashJoin] != 1 {
		t.Errorf("expected hash join, got ops %v\n%s", counts2, p2.Root)
	}
}

func TestNonEquiJoinUsesNestedJoin(t *testing.T) {
	p := mustPlanSQL(t, "SELECT COUNT(*) FROM store_sales, store_returns WHERE ss_ticket_number <= sr_ticket_number", 4)
	counts := p.Root.CountOps()
	if counts[OpNestedJoin] != 1 || counts[OpHashJoin] != 0 {
		t.Errorf("non-equijoin should use nested join: %v", counts)
	}
}

func TestCrossJoinFallback(t *testing.T) {
	p := mustPlanSQL(t, "SELECT COUNT(*) FROM store, warehouse", 4)
	counts := p.Root.CountOps()
	if counts[OpNestedJoin] != 1 {
		t.Errorf("cross product should use nested join: %v", counts)
	}
	var join *Node
	p.Root.Walk(func(n *Node) {
		if n.Op == OpNestedJoin {
			join = n
		}
	})
	if join.ActRows != 60 { // 12 stores x 5 warehouses
		t.Errorf("cross join actual rows = %v, want 60", join.ActRows)
	}
}

func TestStaleDateStatsUnderestimate(t *testing.T) {
	// A range over the most recent dates: the optimizer's stale statistics
	// have not seen that data, so it must underestimate.
	hi := 2452642.0
	lo := hi - 30
	sqlText := "SELECT COUNT(*) FROM store_sales WHERE ss_sold_date_sk BETWEEN 2452612 AND 2452642"
	_ = lo
	p := mustPlanSQL(t, sqlText, 4)
	scan := p.Root.Scans()[0]
	if scan.EstRows >= scan.ActRows {
		t.Errorf("stale stats should underestimate recent ranges: est=%v act=%v", scan.EstRows, scan.ActRows)
	}
	_ = hi
}

func TestCorrelatedPredicatesUnderestimate(t *testing.T) {
	// Several predicates on one table: independence assumption should
	// underestimate relative to the correlated true model.
	sqlText := "SELECT COUNT(*) FROM store_sales WHERE ss_quantity BETWEEN 1 AND 10 AND ss_sales_price BETWEEN 0 AND 20 AND ss_wholesale_cost BETWEEN 0 AND 10"
	p := mustPlanSQL(t, sqlText, 4)
	scan := p.Root.Scans()[0]
	if scan.EstRows >= scan.ActRows {
		t.Errorf("correlated predicates should make act > est: est=%v act=%v", scan.EstRows, scan.ActRows)
	}
}

func TestSubqueryBecomesSemiJoin(t *testing.T) {
	sqlText := "SELECT COUNT(*) FROM store_sales WHERE ss_item_sk IN (SELECT i_item_sk FROM item WHERE i_category = 'v2')"
	p := mustPlanSQL(t, sqlText, 4)
	counts := p.Root.CountOps()
	if counts[OpSemiJoin] != 1 {
		t.Errorf("IN subquery should plan as semi join: %v\n%s", counts, p.Root)
	}
	if counts[OpFileScan] != 2 {
		t.Errorf("expected 2 scans: %v", counts)
	}
	if len(p.Tables) != 2 {
		t.Errorf("tables = %v", p.Tables)
	}
}

func TestExistsSubqueryAddsSubplan(t *testing.T) {
	sqlText := "SELECT COUNT(*) FROM store WHERE EXISTS (SELECT COUNT(*) FROM warehouse WHERE w_warehouse_sq_ft > 100000)"
	p := mustPlanSQL(t, sqlText, 4)
	counts := p.Root.CountOps()
	if counts[OpSemiJoin] != 1 || counts[OpFileScan] != 2 {
		t.Errorf("EXISTS should add a semi-joined subplan: %v", counts)
	}
}

func TestGroupSortLimitOperators(t *testing.T) {
	sqlText := "SELECT i_category, SUM(ss_ext_sales_price) FROM store_sales, item WHERE ss_item_sk = i_item_sk GROUP BY i_category ORDER BY i_category LIMIT 10"
	p := mustPlanSQL(t, sqlText, 4)
	counts := p.Root.CountOps()
	if counts[OpHashGroupBy] != 1 || counts[OpSort] != 1 || counts[OpTopN] != 1 {
		t.Errorf("group/sort/limit ops wrong: %v", counts)
	}
	var group *Node
	p.Root.Walk(func(n *Node) {
		if n.Op == OpHashGroupBy {
			group = n
		}
	})
	// Ten categories: group output must be at most 10-ish on both models.
	if group.EstRows > 20 || group.ActRows > 20 {
		t.Errorf("group cardinality too high: est=%v act=%v", group.EstRows, group.ActRows)
	}
	var topn *Node
	p.Root.Walk(func(n *Node) {
		if n.Op == OpTopN {
			topn = n
		}
	})
	if topn.ActRows > 10 {
		t.Errorf("top-n actual rows = %v, want <= 10", topn.ActRows)
	}
}

func TestPlanConfigsDiffer(t *testing.T) {
	// The same query planned for 4 and for 32 processors should be able to
	// make different physical choices (broadcast thresholds scale with P).
	sqlText := "SELECT COUNT(*) FROM store_sales, customer WHERE ss_customer_sk = c_customer_sk AND c_birth_year BETWEEN 1950 AND 1960"
	p4 := mustPlanSQL(t, sqlText, 4)
	p32 := mustPlanSQL(t, sqlText, 32)
	c4, c32 := p4.Root.CountOps(), p32.Root.CountOps()
	if c4 == c32 {
		t.Logf("plans identical for this query (allowed), ops: %v", c4)
	}
	// At minimum both must be valid and have one join.
	if c4[OpHashJoin]+c4[OpNestedJoin] != 1 || c32[OpHashJoin]+c32[OpNestedJoin] != 1 {
		t.Errorf("join counts wrong: %v vs %v", c4, c32)
	}
}

func TestPlanErrors(t *testing.T) {
	for _, sqlText := range []string{
		"SELECT COUNT(*) FROM nonexistent",
		"SELECT no_such_column FROM store",
		"SELECT COUNT(*) FROM store WHERE mystery_col = 3",
	} {
		q, err := sqlparse.Parse(sqlText)
		if err != nil {
			t.Fatalf("parse %q: %v", sqlText, err)
		}
		if _, err := BuildPlan(q, testSchema, 1, DefaultConfig(4)); err == nil {
			t.Errorf("BuildPlan(%q) succeeded, want error", sqlText)
		}
	}
}

func TestScalarCostGrowsWithWork(t *testing.T) {
	small := mustPlanSQL(t, "SELECT COUNT(*) FROM store", 4)
	big := mustPlanSQL(t, "SELECT COUNT(*) FROM store_sales, store_returns WHERE ss_ticket_number = sr_ticket_number", 4)
	if small.Cost >= big.Cost {
		t.Errorf("cost ordering wrong: small=%v big=%v", small.Cost, big.Cost)
	}
}

func TestEstimatorJoinCardsNonNegative(t *testing.T) {
	in, out := noPredicates.scanCards(testSchema.Table("store_sales"))
	if in.Est <= 0 || out.Act <= 0 {
		t.Errorf("scan cards must be positive: %+v %+v", in, out)
	}
	if out.Est > in.Est || out.Act > in.Act {
		t.Errorf("scan output cannot exceed input: in=%+v out=%+v", in, out)
	}
	if _, err := BuildPlan(&sqlgen.Query{
		Select: []sqlgen.SelectItem{{Agg: sqlgen.AggCountStar}},
		From:   []sqlgen.TableRef{{Table: "missing"}},
	}, testSchema, 3, DefaultConfig(4)); err == nil {
		t.Error("unknown table should error")
	}
}

func TestGroupCards(t *testing.T) {
	e := NewEstimator(testSchema, 3)
	// Far more rows than groups: distinct estimate saturates at the NDV.
	out := e.GroupCards(10, Card{Est: 1e6, Act: 1e6})
	if out.Est < 5 || out.Est > 10 {
		t.Errorf("group estimate = %v, want ~10", out.Est)
	}
	// Fewer rows than groups: output bounded by rows.
	out2 := e.GroupCards(1e9, Card{Est: 100, Act: 100})
	if out2.Est > 100 {
		t.Errorf("group estimate = %v, want <= 100", out2.Est)
	}
}

func TestOpTypeNames(t *testing.T) {
	if OpFileScan.String() != "file_scan" || OpHashGroupBy.String() != "hashgroupby" {
		t.Error("operator names wrong")
	}
	if len(AllOpTypes()) != NumOpTypes {
		t.Error("AllOpTypes length mismatch")
	}
	if OpType(-1).String() == "" || OpType(999).String() == "" {
		t.Error("out-of-range op types must render")
	}
}

func TestPlanStringRendering(t *testing.T) {
	p := mustPlanSQL(t, "SELECT COUNT(*) FROM store", 4)
	s := p.Root.String()
	if len(s) == 0 || math.IsNaN(p.Cost) {
		t.Error("plan rendering or cost broken")
	}
}

func TestNodeCostSumsToScalarCost(t *testing.T) {
	p := mustPlanSQL(t, "SELECT i_category, SUM(ss_ext_sales_price) FROM store_sales, item WHERE ss_item_sk = i_item_sk GROUP BY i_category ORDER BY i_category", 4)
	sum := 0.0
	p.Root.Walk(func(n *Node) { sum += NodeCost(n) })
	if math.Abs(sum-p.Cost) > 1e-9*p.Cost {
		t.Errorf("node costs sum to %v, plan cost %v", sum, p.Cost)
	}
}

func TestExplainRendersEveryOperator(t *testing.T) {
	p := mustPlanSQL(t, "SELECT COUNT(*) FROM store_sales, store_returns WHERE ss_ticket_number <= sr_ticket_number", 4)
	out := Explain(p)
	for _, want := range []string{"file_scan [store_sales]", "nested_join (pairwise)", "cost", "root"} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q:\n%s", want, out)
		}
	}
	ops := 0
	p.Root.Walk(func(*Node) { ops++ })
	// Header (2 lines) + one line per operator.
	if lines := strings.Count(out, "\n"); lines != ops+2 {
		t.Errorf("Explain lines = %d, want %d", lines, ops+2)
	}
}

// TestNodesShareOneSlab: a plan's nodes are consecutive elements of one
// allocation, each holding its own child list.
func TestNodesShareOneSlab(t *testing.T) {
	p := mustPlanSQL(t, "SELECT i_category, COUNT(*) FROM store_sales, item WHERE ss_item_sk = i_item_sk GROUP BY i_category ORDER BY i_category LIMIT 5", 4)
	var lo, hi uintptr
	count := 0
	p.Root.Walk(func(n *Node) {
		addr := uintptr(unsafe.Pointer(n))
		if count == 0 || addr < lo {
			lo = addr
		}
		if addr > hi {
			hi = addr
		}
		count++
		if len(n.Children) > 0 && &n.Children[0] != &n.kids[0] {
			t.Errorf("%s keeps its children outside the node", n.Op)
		}
	})
	if span := (hi-lo)/unsafe.Sizeof(Node{}) + 1; int(span) != count {
		t.Errorf("%d nodes spread over %d slab slots", count, span)
	}
}

// TestFromListLimit: relation sets are 64-bit masks, so a SELECT lists at
// most maxFromEntries tables — and plans that many.
func TestFromListLimit(t *testing.T) {
	build := func(n int) *sqlgen.Query {
		q := &sqlgen.Query{Select: []sqlgen.SelectItem{{Agg: sqlgen.AggCountStar}}}
		for i := 0; i < n; i++ {
			q.From = append(q.From, sqlgen.TableRef{Table: "store", Alias: fmt.Sprintf("s%d", i)})
			if i > 0 {
				q.Joins = append(q.Joins, sqlgen.JoinPred{
					Left:  sqlgen.ColumnRef{Table: fmt.Sprintf("s%d", i-1), Column: "s_store_sk"},
					Right: sqlgen.ColumnRef{Table: fmt.Sprintf("s%d", i), Column: "s_store_sk"},
				})
			}
		}
		return q
	}
	for _, ordering := range []JoinOrdering{OrderGreedy, OrderDP} {
		cfg := DefaultConfig(4)
		cfg.JoinOrdering = ordering
		p, err := BuildPlan(build(maxFromEntries), testSchema, 3, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		if got := len(p.Root.Scans()); got != maxFromEntries || len(p.Tables) != maxFromEntries {
			t.Errorf("%d scans, %d tables, want %d", got, len(p.Tables), maxFromEntries)
		}
		_, err = BuildPlan(build(maxFromEntries+1), testSchema, 3, cfg)
		if want := "optimizer: 65 FROM entries, at most 64 are supported"; err == nil || err.Error() != want {
			t.Errorf("65 FROM entries: %v, want %s", err, want)
		}
	}
}
