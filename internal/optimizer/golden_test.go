package optimizer_test

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/optimizer"
	"repro/internal/sqlgen"
	"repro/internal/sqlparse"
	"repro/internal/statutil"
	"repro/internal/testutil"
	"repro/internal/workload"
)

// updateGolden regenerates testdata/plan_digests.golden from whatever
// pipeline this checkout has. The committed file was written by the commit
// BEFORE the streaming parser / slab planner / streamed hash01 landed, so
// passing TestGoldenPlanDigests is the proof that the rewrite changed no
// plan, no cost and no feature vector.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/plan_digests.golden from this checkout's pipeline")

const goldenPath = "testdata/plan_digests.golden"

// goldenReps is how often the generating run planned each query, and
// goldenRepsUnstable how often it planned one that had shown two digests by
// then. The pre-rewrite planner chose among equally applicable join edges
// (and among FROM tables holding an unqualified column) by map iteration
// order, so queries with a cyclic join graph or an ambiguous column
// legitimately have several digests in the file — every one an outcome the
// old planner produced. The rule that replaced the map walk (first-seen
// predicate order, FROM order) is the old planner's likeliest outcome at
// each choice, so it is among them.
//
// A query the old planner planned in more than goldenMaxDigests ways (a
// dozen independent coin flips, mostly under the DP enumerator) is recorded
// as "order-dependent" and only held to the new contract: one SQL, one plan.
const (
	goldenReps         = 64
	goldenRepsUnstable = 4000
	goldenMaxDigests   = 12
	orderDependent     = "order-dependent"
)

type goldenCase struct {
	sql    string
	schema *catalog.Schema
	seed   int64
	cfg    optimizer.Config
}

// goldenCorpus is the fixed query set: the stock boot workload, the parser's
// fuzz corpus (mostly parse and plan errors — their text is part of the
// contract), fresh draws of every template, and schema-aware random queries
// that reach the shapes no template has (aliases, self joins, cyclic join
// graphs, inequality joins, IN lists, IN and EXISTS subqueries, both join
// enumerators, two machine sizes).
func goldenCorpus(t testing.TB) []goldenCase {
	tpcds, customer := catalog.TPCDS(1), catalog.CustomerSchema()
	stock := optimizer.DefaultConfig(4)
	var cases []goldenCase

	for _, q := range testutil.StockQueries(t, 800) {
		cases = append(cases, goldenCase{q.SQL, tpcds, 3, stock})
	}

	files, err := filepath.Glob("../sqlparse/testdata/fuzz/FuzzParseSQL/*")
	if err != nil || len(files) == 0 {
		t.Fatalf("sqlparse fuzz corpus not found: %v", err)
	}
	sort.Strings(files)
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if len(lines) != 2 || !strings.HasPrefix(lines[1], "string(") {
			t.Fatalf("%s: unexpected corpus entry", f)
		}
		s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "string("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		// Bytes outside ASCII are the one place the lexer deliberately
		// changed (they no longer start or continue an identifier); the
		// sqlparse tests pin that behaviour.
		if strings.IndexFunc(s, func(r rune) bool { return r >= 0x80 }) < 0 {
			cases = append(cases, goldenCase{s, tpcds, 3, stock})
		}
	}

	big := optimizer.DefaultConfig(32)
	r := statutil.NewRNG(2024, "golden:templates")
	for i, tpls := 0, workload.TPCDSTemplates(); i < 900; i++ {
		cfg := stock
		if i%3 == 2 {
			cfg = big
		}
		cases = append(cases, goldenCase{tpls[i%len(tpls)].Gen(r).Render(), tpcds, int64(i % 4), cfg})
	}
	for i, tpls := 0, workload.CustomerTemplates(); i < 300; i++ {
		cases = append(cases, goldenCase{tpls[i%len(tpls)].Gen(r).Render(), customer, 7, stock})
	}

	r = statutil.NewRNG(2024, "golden:random")
	for i := 0; i < 1000; i++ {
		schema, seed := tpcds, []int64{3, 0, -1, math.MaxInt64}[i%4]
		if i%5 == 4 {
			schema = customer
		}
		cfg := stock
		switch i % 6 {
		case 1:
			cfg = big
		case 2:
			cfg.JoinOrdering = optimizer.OrderDP
		case 3:
			cfg.BroadcastRows = 50
		}
		cases = append(cases, goldenCase{randSchemaQuery(r, schema, 0).Render(), schema, seed, cfg})
	}
	return cases
}

// randSchemaQuery draws a query over real tables and columns of schema.
// It does not try to be valid: validation and planning errors are digested
// too.
func randSchemaQuery(r *statutil.RNG, schema *catalog.Schema, depth int) *sqlgen.Query {
	tables := schema.TableNames()
	q := &sqlgen.Query{}
	nFrom := r.IntBetween(1, 4)
	seen := map[string]bool{}
	for i := 0; i < nFrom; i++ {
		ref := sqlgen.TableRef{Table: tables[r.Intn(len(tables))]}
		// A repeated table needs an alias; others get one a third of the time.
		if seen[ref.Table] || r.Intn(3) == 0 {
			ref.Alias = "a" + strconv.Itoa(i)
		}
		seen[ref.Table] = true
		q.From = append(q.From, ref)
	}
	colOf := func(i int) sqlgen.ColumnRef {
		cols := schema.Table(q.From[i].Table).Columns
		c := sqlgen.ColumnRef{Column: cols[r.Intn(len(cols))].Name}
		// Unqualified half the time — ambiguous when the table repeats.
		if r.Intn(2) == 0 {
			c.Table = q.From[i].Name()
		}
		return c
	}
	col := func() sqlgen.ColumnRef { return colOf(r.Intn(nFrom)) }
	lit := func(c sqlgen.ColumnRef) sqlgen.Literal {
		lo, hi := -10.0, 1000.0
		for _, t := range q.From {
			if cc := schema.Table(t.Table).Column(c.Column); cc != nil {
				lo, hi = cc.Min, cc.Max
			}
		}
		v := r.Uniform(lo-0.1*(hi-lo), hi+0.1*(hi-lo))
		switch r.Intn(4) {
		case 0:
			return sqlgen.Literal{Value: math.Abs(math.Trunc(v)), IsChar: true}
		case 1:
			return sqlgen.Literal{Value: v}
		}
		return sqlgen.Literal{Value: math.Trunc(v)}
	}
	ops := []sqlgen.CmpOp{sqlgen.OpEq, sqlgen.OpEq, sqlgen.OpEq, sqlgen.OpLt, sqlgen.OpLe, sqlgen.OpGt, sqlgen.OpGe, sqlgen.OpNe}

	hasAgg := false
	for i, n := 0, r.IntBetween(1, 3); i < n; i++ {
		switch r.Intn(5) {
		case 0:
			q.Select = append(q.Select, sqlgen.SelectItem{Agg: sqlgen.AggCountStar})
			hasAgg = true
		case 1:
			q.Select = append(q.Select, sqlgen.SelectItem{Agg: []sqlgen.AggFunc{sqlgen.AggSum, sqlgen.AggAvg, sqlgen.AggMin, sqlgen.AggMax, sqlgen.AggCount}[r.Intn(5)], Col: col()})
			hasAgg = true
		default:
			c := col()
			q.Select = append(q.Select, sqlgen.SelectItem{Col: c})
			q.GroupBy = append(q.GroupBy, c)
		}
	}
	if !hasAgg && r.Intn(3) > 0 {
		q.GroupBy = nil
	}

	// A spanning chain most of the time, then extra edges: cycles, repeated
	// pairs, self-comparisons.
	for i := 1; i < nFrom; i++ {
		if r.Intn(5) > 0 {
			j := r.Intn(i)
			q.Joins = append(q.Joins, sqlgen.JoinPred{Left: colOf(j), Right: colOf(i), Op: ops[r.Intn(len(ops))]})
		}
	}
	for r.Intn(3) == 0 {
		q.Joins = append(q.Joins, sqlgen.JoinPred{Left: col(), Right: col(), Op: ops[r.Intn(len(ops))]})
	}

	for i, n := 0, r.IntBetween(0, 4); i < n; i++ {
		c := col()
		switch r.Intn(7) {
		case 0:
			lo := lit(c)
			hi := sqlgen.Literal{Value: lo.Value + math.Trunc(r.Uniform(-5, 400)), IsChar: lo.IsChar}
			q.Where = append(q.Where, sqlgen.Predicate{Col: c, Op: sqlgen.OpBetween, Lo: lo, Hi: hi})
		case 1:
			var vals []sqlgen.Literal
			for k, m := 0, r.IntBetween(1, 5); k < m; k++ {
				vals = append(vals, lit(c))
			}
			q.Where = append(q.Where, sqlgen.Predicate{Col: c, Op: sqlgen.OpIn, Values: vals})
		case 2:
			if depth == 0 {
				q.Where = append(q.Where, sqlgen.Predicate{Col: c, Op: sqlgen.OpIn, Subquery: randSchemaQuery(r, schema, 1)})
				continue
			}
			fallthrough
		case 3:
			if depth == 0 && r.Intn(2) == 0 {
				q.Where = append(q.Where, sqlgen.Predicate{Op: sqlgen.OpIn, Exists: true, Subquery: randSchemaQuery(r, schema, 1)})
				continue
			}
			fallthrough
		default:
			q.Where = append(q.Where, sqlgen.Predicate{Col: c, Op: ops[r.Intn(len(ops))], Value: lit(c)})
		}
	}

	for r.Intn(2) == 0 {
		q.OrderBy = append(q.OrderBy, sqlgen.OrderItem{Col: col(), Desc: r.Intn(2) == 0})
	}
	if r.Intn(3) == 0 {
		q.Limit = r.IntBetween(1, 5000)
	}
	return q
}

// fnvString and fnvMix are FNV-1a, spelled out so the digest does not
// depend on any code under test.
func fnvMix(h, v uint64) uint64 {
	for s := 0; s < 64; s += 8 {
		h ^= (v >> s) & 0xff
		h *= 1099511628211
	}
	return h
}

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

const fnvOffset = 14695981039346656037

// planDigest runs the whole pipeline on one case and digests the outcome:
// cost bits, the feature-vector fingerprint, and a pre-order hash of every
// node (op, table, widths, flags, column counts, child count, the four
// cardinalities' bits) plus Plan.Tables; or, on failure, the stage and a
// hash of the error text.
func planDigest(c goldenCase) string {
	ast, err := sqlparse.Parse(c.sql)
	if err != nil {
		return fmt.Sprintf("parse-error:%016x", fnvString(fnvOffset, err.Error()))
	}
	plan, err := optimizer.BuildPlan(ast, c.schema, c.seed, c.cfg)
	if err != nil {
		return fmt.Sprintf("plan-error:%016x", fnvString(fnvOffset, err.Error()))
	}
	h := uint64(fnvOffset)
	plan.Root.Walk(func(n *optimizer.Node) {
		h = fnvMix(h, uint64(n.Op))
		h = fnvString(h, n.Table)
		h = fnvMix(h, uint64(n.Width))
		var flags uint64
		if n.Broadcast {
			flags |= 1
		}
		if n.Pairwise {
			flags |= 2
		}
		h = fnvMix(h, flags)
		h = fnvMix(h, uint64(n.SortCols))
		h = fnvMix(h, uint64(n.GroupCols))
		h = fnvMix(h, uint64(len(n.Children)))
		for _, v := range []float64{n.EstRowsIn, n.ActRowsIn, n.EstRows, n.ActRows} {
			h = fnvMix(h, math.Float64bits(v))
		}
	})
	for _, tab := range plan.Tables {
		h = fnvString(fnvMix(h, 0), tab)
	}
	return fmt.Sprintf("%016x:%016x:%016x", math.Float64bits(plan.Cost), core.Fingerprint(features.PlanVector(plan)), h)
}

func TestGoldenPlanDigests(t *testing.T) {
	cases := goldenCorpus(t)
	if *updateGolden {
		var sb strings.Builder
		multi := 0
		for _, c := range cases {
			set := map[string]bool{}
			for rep := 0; rep < goldenReps || (len(set) > 1 && rep < goldenRepsUnstable); rep++ {
				set[planDigest(c)] = true
			}
			ds := make([]string, 0, len(set))
			for d := range set {
				ds = append(ds, d)
			}
			sort.Strings(ds)
			if len(ds) > 1 {
				multi++
			}
			if len(ds) > goldenMaxDigests {
				ds = []string{orderDependent}
			}
			fmt.Fprintf(&sb, "%016x %s\n", fnvString(fnvOffset, c.sql), strings.Join(ds, " "))
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d cases to %s (%d with more than one digest)", len(cases), goldenPath, multi)
		return
	}

	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	stats := map[string]int{}
	for i, c := range cases {
		if !sc.Scan() {
			t.Fatalf("golden file ends at line %d, corpus has %d cases", i, len(cases))
		}
		fields := strings.Fields(sc.Text())
		if want := fmt.Sprintf("%016x", fnvString(fnvOffset, c.sql)); fields[0] != want {
			t.Fatalf("case %d: corpus drifted from the golden file (SQL hash %s, file has %s): %s", i, want, fields[0], c.sql)
		}
		got := planDigest(c)
		ok := false
		for _, d := range fields[1:] {
			ok = ok || d == got || d == orderDependent
		}
		if !ok {
			t.Errorf("case %d: digest %s, golden %v\n%s", i, got, fields[1:], c.sql)
		}
		// The rewrite's own contract is stricter than the file: one SQL, one plan.
		if again := planDigest(c); again != got {
			t.Errorf("case %d: two runs gave %s and %s\n%s", i, got, again, c.sql)
		}
		switch {
		case strings.HasPrefix(got, "parse-error"):
			stats["parse errors"]++
		case strings.HasPrefix(got, "plan-error"):
			stats["plan errors"]++
		default:
			stats["plans"]++
		}
		if len(fields) > 2 || fields[1] == orderDependent {
			stats["order-dependent at generation"]++
		}
	}
	if sc.Scan() {
		t.Fatalf("golden file has more lines than the corpus's %d cases", len(cases))
	}
	t.Logf("%d cases: %v", len(cases), stats)
}

// TestPlanDeterministic: a plan is a pure function of the SQL. The first
// query's join graph has a cycle (three edges among three tables), so once
// two of them are joined two edges could attach the third; the second
// names a column two FROM entries have. Both used to be planned by map
// iteration order — the first came out at cost 11755.1 in about three calls
// of four and 7750.96 in the rest. The rule now: edges are tried in the
// order their first predicate appears in the query, and a bare column
// belongs to the first FROM entry that has it.
func TestPlanDeterministic(t *testing.T) {
	tpcds, stock := catalog.TPCDS(1), optimizer.DefaultConfig(4)
	cyclic := "SELECT COUNT(*) FROM store_sales ss, store_returns sr, item i WHERE ss.ss_item_sk = i.i_item_sk AND sr.sr_item_sk = i.i_item_sk AND ss.ss_ticket_number = sr.sr_ticket_number AND i.i_current_price > 50"
	ambiguous := "SELECT COUNT(*) FROM item a, item b WHERE a.i_item_sk = b.i_item_sk AND a.i_category = 'v3' AND i_current_price > 50"
	cases := []goldenCase{{cyclic, tpcds, 3, stock}, {ambiguous, tpcds, 3, stock}}
	for _, q := range testutil.StockQueries(t, 200) {
		cases = append(cases, goldenCase{q.SQL, tpcds, 3, stock})
	}
	for _, c := range cases {
		first := planDigest(c)
		if strings.Contains(first, "error") {
			t.Fatalf("%s: %s", c.sql, first)
		}
		for rep := 1; rep < 300; rep++ {
			if d := planDigest(c); d != first {
				t.Fatalf("repetition %d planned differently (%s, then %s): %s", rep, first, d, c.sql)
			}
		}
	}

	cost := func(sql string) float64 {
		ast, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := optimizer.BuildPlan(ast, tpcds, 3, stock)
		if err != nil {
			t.Fatal(err)
		}
		return plan.Cost
	}
	// The rule itself, on the cyclic query: item (smallest) joins
	// store_returns first; store_sales then attaches over ss–i, the edge
	// written first, not over the later ss–sr.
	if got := cost(cyclic); math.Abs(got-11755.1) > 0.05 {
		t.Errorf("cyclic query cost %v, want 11755.1 (first-written edge)", got)
	}
	swapped := "SELECT COUNT(*) FROM store_sales ss, store_returns sr, item i WHERE ss.ss_ticket_number = sr.sr_ticket_number AND ss.ss_item_sk = i.i_item_sk AND sr.sr_item_sk = i.i_item_sk AND i.i_current_price > 50"
	if got := cost(swapped); math.Abs(got-7750.96) > 0.005 {
		t.Errorf("cyclic query with ss–sr written first: cost %v, want 7750.96", got)
	}
	// FROM order decides the ambiguous column: bare i_current_price is a's.
	digest := func(sql string) string { return planDigest(goldenCase{sql, tpcds, 3, stock}) }
	bare, asA, asB := digest(ambiguous), digest(strings.Replace(ambiguous, "AND i_current_price", "AND a.i_current_price", 1)),
		digest(strings.Replace(ambiguous, "AND i_current_price", "AND b.i_current_price", 1))
	if bare != asA || bare == asB {
		t.Errorf("bare column planned as %s; qualified with a %s, with b %s", bare, asA, asB)
	}
}

// TestPlanAllocs: planning allocates the Plan, its table list and one slab
// of nodes — plus one slab per subquery — and nothing transient. (The
// planner's working state is meant to stay in its frame; if escape analysis
// ever moves it to the heap, this is the test that notices.)
func TestPlanAllocs(t *testing.T) {
	planner := optimizer.NewPlanner(catalog.TPCDS(1), 3, optimizer.DefaultConfig(4))
	for _, tc := range []struct {
		sql  string
		want float64
	}{
		{"SELECT COUNT(*) FROM store_sales WHERE ss_quantity BETWEEN 1 AND 50", 3},
		{"SELECT i_category, SUM(ss_ext_sales_price) FROM store_sales, item, date_dim WHERE ss_item_sk = i_item_sk AND ss_sold_date_sk = d_date_sk AND d_year = 2000 AND i_category IN ('v1', 'v2') GROUP BY i_category ORDER BY i_category LIMIT 10", 3},
		{"SELECT COUNT(*) FROM store_sales WHERE ss_item_sk IN (SELECT i_item_sk FROM item WHERE i_current_price > 50) AND EXISTS (SELECT s_store_sk FROM store)", 5},
	} {
		q, err := sqlparse.Parse(tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(100, func() {
			if _, err := planner.Plan(q); err != nil {
				t.Fatal(err)
			}
		})
		if got != tc.want && !testutil.RaceEnabled {
			t.Errorf("Plan allocates %.0f objects, want %.0f: %s", got, tc.want, tc.sql)
		}
	}
}
