package sqlgen

import (
	"fmt"
	"strings"
	"testing"
)

func sampleQuery() *Query {
	return &Query{
		Select: []SelectItem{
			{Col: ColumnRef{Table: "i", Column: "i_category"}},
			{Agg: AggSum, Col: ColumnRef{Table: "ss", Column: "ss_ext_sales_price"}},
			{Agg: AggCountStar},
		},
		From: []TableRef{
			{Table: "store_sales", Alias: "ss"},
			{Table: "item", Alias: "i"},
		},
		Joins: []JoinPred{
			{Left: ColumnRef{"ss", "ss_item_sk"}, Right: ColumnRef{"i", "i_item_sk"}, Op: OpEq},
		},
		Where: []Predicate{
			{Col: ColumnRef{"ss", "ss_quantity"}, Op: OpBetween, Lo: Literal{Value: 1}, Hi: Literal{Value: 10}},
			{Col: ColumnRef{"i", "i_category"}, Op: OpEq, Value: Literal{Value: 3, IsChar: true}},
		},
		GroupBy: []ColumnRef{{"i", "i_category"}},
		OrderBy: []OrderItem{{Col: ColumnRef{"i", "i_category"}}},
		Limit:   100,
	}
}

func TestRender(t *testing.T) {
	q := sampleQuery()
	sql := q.Render()
	want := "SELECT i.i_category, SUM(ss.ss_ext_sales_price), COUNT(*) FROM store_sales AS ss, item AS i " +
		"WHERE ss.ss_item_sk = i.i_item_sk AND ss.ss_quantity BETWEEN 1 AND 10 AND i.i_category = 'v3' " +
		"GROUP BY i.i_category ORDER BY i.i_category LIMIT 100"
	if sql != want {
		t.Errorf("Render mismatch:\n got: %s\nwant: %s", sql, want)
	}
}

func TestStats(t *testing.T) {
	q := sampleQuery()
	ts := q.Stats()
	if ts.JoinPreds != 1 || ts.EquijoinPreds != 1 || ts.NonEquijoinPreds != 0 {
		t.Errorf("join stats wrong: %+v", ts)
	}
	if ts.SelectionPreds != 2 || ts.EqualitySelections != 1 || ts.NonEqualitySelects != 1 {
		t.Errorf("selection stats wrong: %+v", ts)
	}
	if ts.SortColumns != 1 || ts.AggregationColumns != 2 {
		t.Errorf("sort/agg stats wrong: %+v", ts)
	}
	if ts.NestedSubqueries != 0 {
		t.Errorf("nested subqueries = %d", ts.NestedSubqueries)
	}
}

func TestStatsNestedSubquery(t *testing.T) {
	q := sampleQuery()
	q.Where = append(q.Where, Predicate{
		Col: ColumnRef{"ss", "ss_customer_sk"},
		Op:  OpIn,
		Subquery: &Query{
			Select: []SelectItem{{Col: ColumnRef{Column: "c_customer_sk"}}},
			From:   []TableRef{{Table: "customer"}},
			Where: []Predicate{
				{Col: ColumnRef{Column: "c_birth_year"}, Op: OpGt, Value: Literal{Value: 1980}},
			},
		},
	})
	ts := q.Stats()
	if ts.NestedSubqueries != 1 {
		t.Errorf("nested = %d, want 1", ts.NestedSubqueries)
	}
	// Selection predicates count across the whole statement: 2 outer + the
	// IN itself + 1 inner.
	if ts.SelectionPreds != 4 {
		t.Errorf("selections = %d, want 4", ts.SelectionPreds)
	}
	vec := ts.Vector()
	if len(vec) != 9 {
		t.Errorf("vector length = %d", len(vec))
	}
	if vec[0] != 1 {
		t.Errorf("vector[0] = %v, want 1", vec[0])
	}
}

func TestTables(t *testing.T) {
	q := sampleQuery()
	q.Where = append(q.Where, Predicate{
		Col:      ColumnRef{"ss", "ss_store_sk"},
		Op:       OpIn,
		Subquery: &Query{Select: []SelectItem{{Col: ColumnRef{Column: "s_store_sk"}}}, From: []TableRef{{Table: "store"}}},
	})
	got := q.Tables()
	want := []string{"store_sales", "item", "store"}
	if len(got) != len(want) {
		t.Fatalf("Tables = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Tables[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestValidate(t *testing.T) {
	q := sampleQuery()
	if err := q.Validate(); err != nil {
		t.Errorf("valid query rejected: %v", err)
	}

	bad := sampleQuery()
	bad.Joins[0].Right.Table = "zz"
	if err := bad.Validate(); err == nil {
		t.Error("join to unknown alias accepted")
	}

	noSel := sampleQuery()
	noSel.Select = nil
	if err := noSel.Validate(); err == nil {
		t.Error("empty select accepted")
	}

	noFrom := sampleQuery()
	noFrom.From = nil
	if err := noFrom.Validate(); err == nil {
		t.Error("empty FROM accepted")
	}

	badGroup := sampleQuery()
	badGroup.GroupBy = nil
	if err := badGroup.Validate(); err == nil {
		t.Error("aggregate query with ungrouped plain column accepted")
	}

	dup := sampleQuery()
	dup.From[1].Alias = "ss"
	if err := dup.Validate(); err == nil {
		t.Error("duplicate alias accepted")
	}
}

// TestValidateMessagesAndAllocs pins the error text (callers and the wire
// see it) and that validating — which planning does for every query — does
// not allocate.
func TestValidateMessagesAndAllocs(t *testing.T) {
	col := func(tab, c string) ColumnRef { return ColumnRef{Table: tab, Column: c} }
	base := func() *Query {
		return &Query{
			Select:  []SelectItem{{Col: col("a", "x")}, {Agg: AggCountStar}},
			From:    []TableRef{{Table: "t", Alias: "a"}, {Table: "u"}},
			Joins:   []JoinPred{{Left: col("a", "k"), Right: col("u", "k")}},
			Where:   []Predicate{{Col: col("u", "v"), Op: OpGt, Value: Literal{Value: 1}}},
			GroupBy: []ColumnRef{col("u", "y"), col("a", "x")},
		}
	}
	for _, tc := range []struct {
		edit func(q *Query)
		want string
	}{
		{func(q *Query) {}, ""},
		{func(q *Query) { q.From[1] = TableRef{Table: "a"} }, `sqlgen: duplicate FROM name "a"`},
		{func(q *Query) { q.Joins[0].Right.Table = "zz" }, `sqlgen: column zz.k references unknown table "zz"`},
		{func(q *Query) { q.Where[0].Col.Table = "t" }, `sqlgen: column t.v references unknown table "t"`},
		{func(q *Query) { q.GroupBy = q.GroupBy[:1] }, `sqlgen: non-aggregated column a.x missing from GROUP BY`},
		// Grouping is by spelling: "a.x" is "a.x" however it is split.
		{func(q *Query) { q.GroupBy[1] = col("", "a.x") }, ""},
		{func(q *Query) { q.GroupBy[1] = col("a", "xx") }, `sqlgen: non-aggregated column a.x missing from GROUP BY`},
		{func(q *Query) {
			q.Where = append(q.Where, Predicate{Exists: true, Subquery: &Query{Select: q.Select}})
		}, `sqlgen: query has no FROM tables`},
	} {
		q := base()
		tc.edit(q)
		err := q.Validate()
		if got := fmt.Sprint(err); (tc.want == "") != (err == nil) || (err != nil && got != tc.want) {
			t.Errorf("Validate = %v, want %q", err, tc.want)
		}
	}
	q := base()
	if n := testing.AllocsPerRun(100, func() { _ = q.Validate() }); n != 0 {
		t.Errorf("Validate allocates %.0f objects per call", n)
	}
}

func TestLiteralRender(t *testing.T) {
	if got := (Literal{Value: -82}).Render(); got != "-82" {
		t.Errorf("numeric literal = %q", got)
	}
	if got := (Literal{Value: 7, IsChar: true}).Render(); got != "'v7'" {
		t.Errorf("char literal = %q", got)
	}
	if got := (Literal{Value: 2450815}).Render(); got != "2450815" {
		t.Errorf("date literal = %q, want plain digits", got)
	}
}

func TestRenderInListAndExists(t *testing.T) {
	q := &Query{
		Select: []SelectItem{{Agg: AggCountStar}},
		From:   []TableRef{{Table: "item"}},
		Where: []Predicate{
			{Col: ColumnRef{Column: "i_category_id"}, Op: OpIn,
				Values: []Literal{{Value: 1}, {Value: 2}, {Value: 3}}},
			{Exists: true, Op: OpIn, Subquery: &Query{
				Select: []SelectItem{{Agg: AggCountStar}},
				From:   []TableRef{{Table: "store"}},
			}},
		},
	}
	sql := q.Render()
	if !strings.Contains(sql, "i_category_id IN (1, 2, 3)") {
		t.Errorf("IN list not rendered: %s", sql)
	}
	if !strings.Contains(sql, "EXISTS (SELECT COUNT(*) FROM store)") {
		t.Errorf("EXISTS not rendered: %s", sql)
	}
}

func TestCmpOpHelpers(t *testing.T) {
	if !OpEq.IsEquality() || OpNe.IsEquality() {
		t.Error("IsEquality wrong")
	}
	ops := []CmpOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpBetween, OpIn}
	want := []string{"=", "<>", "<", "<=", ">", ">=", "BETWEEN", "IN"}
	for i, op := range ops {
		if op.String() != want[i] {
			t.Errorf("op %d = %q, want %q", i, op.String(), want[i])
		}
	}
}

func TestHasAggregate(t *testing.T) {
	if (&Query{Select: []SelectItem{{Col: ColumnRef{Column: "a"}}}}).HasAggregate() {
		t.Error("plain column misdetected as aggregate")
	}
	if !(&Query{Select: []SelectItem{{Agg: AggMax, Col: ColumnRef{Column: "a"}}}}).HasAggregate() {
		t.Error("aggregate not detected")
	}
}
