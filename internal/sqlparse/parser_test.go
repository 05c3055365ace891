package sqlparse

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/sqlgen"
)

func TestParseSimple(t *testing.T) {
	q, err := Parse("SELECT COUNT(*) FROM store_sales WHERE ss_quantity > 5")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Select) != 1 || q.Select[0].Agg != sqlgen.AggCountStar {
		t.Errorf("select wrong: %+v", q.Select)
	}
	if len(q.From) != 1 || q.From[0].Table != "store_sales" {
		t.Errorf("from wrong: %+v", q.From)
	}
	if len(q.Where) != 1 || q.Where[0].Op != sqlgen.OpGt || q.Where[0].Value.Value != 5 {
		t.Errorf("where wrong: %+v", q.Where)
	}
}

func TestParseJoinVsSelection(t *testing.T) {
	q, err := Parse("SELECT a.x FROM t1 AS a, t2 AS b WHERE a.k = b.k AND a.x = 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Joins) != 1 {
		t.Fatalf("joins = %+v", q.Joins)
	}
	if q.Joins[0].Left.String() != "a.k" || q.Joins[0].Right.String() != "b.k" {
		t.Errorf("join refs wrong: %+v", q.Joins[0])
	}
	if len(q.Where) != 1 || q.Where[0].Col.String() != "a.x" {
		t.Errorf("selection wrong: %+v", q.Where)
	}
}

func TestParseNonEquijoin(t *testing.T) {
	q, err := Parse("SELECT a.x FROM t1 AS a, t2 AS b WHERE a.k <= b.k")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Joins) != 1 || q.Joins[0].Op != sqlgen.OpLe {
		t.Errorf("non-equijoin wrong: %+v", q.Joins)
	}
	st := q.Stats()
	if st.NonEquijoinPreds != 1 || st.EquijoinPreds != 0 {
		t.Errorf("stats wrong: %+v", st)
	}
}

func TestParseBetweenAndIn(t *testing.T) {
	q, err := Parse("SELECT x FROM t WHERE x BETWEEN 2 AND 8 AND y IN (1, 2, 3) AND z = 'v9'")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Where) != 3 {
		t.Fatalf("where count = %d", len(q.Where))
	}
	b := q.Where[0]
	if b.Op != sqlgen.OpBetween || b.Lo.Value != 2 || b.Hi.Value != 8 {
		t.Errorf("between wrong: %+v", b)
	}
	in := q.Where[1]
	if in.Op != sqlgen.OpIn || len(in.Values) != 3 || in.Values[2].Value != 3 {
		t.Errorf("in wrong: %+v", in)
	}
	ch := q.Where[2]
	if !ch.Value.IsChar || ch.Value.Value != 9 {
		t.Errorf("char literal wrong: %+v", ch)
	}
}

func TestParseSubqueries(t *testing.T) {
	src := "SELECT COUNT(*) FROM t1 WHERE k IN (SELECT k FROM t2 WHERE v > 10) AND EXISTS (SELECT j FROM t3)"
	q, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Where) != 2 {
		t.Fatalf("where count = %d", len(q.Where))
	}
	if q.Where[0].Subquery == nil || q.Where[0].Subquery.From[0].Table != "t2" {
		t.Errorf("IN subquery wrong: %+v", q.Where[0])
	}
	if !q.Where[1].Exists || q.Where[1].Subquery.From[0].Table != "t3" {
		t.Errorf("EXISTS wrong: %+v", q.Where[1])
	}
	st := q.Stats()
	if st.NestedSubqueries != 2 {
		t.Errorf("nested = %d, want 2", st.NestedSubqueries)
	}
}

func TestParseGroupOrderLimit(t *testing.T) {
	q, err := Parse("SELECT g, SUM(v) FROM t GROUP BY g ORDER BY g DESC, h LIMIT 50")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.GroupBy) != 1 || q.GroupBy[0].Column != "g" {
		t.Errorf("group wrong: %+v", q.GroupBy)
	}
	if len(q.OrderBy) != 2 || !q.OrderBy[0].Desc || q.OrderBy[1].Desc {
		t.Errorf("order wrong: %+v", q.OrderBy)
	}
	if q.Limit != 50 {
		t.Errorf("limit = %d", q.Limit)
	}
}

func TestParseImplicitAlias(t *testing.T) {
	q, err := Parse("SELECT a.x FROM t1 a WHERE a.x < 3")
	if err != nil {
		t.Fatal(err)
	}
	if q.From[0].Alias != "a" {
		t.Errorf("implicit alias not parsed: %+v", q.From[0])
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	if _, err := Parse("select x from t where x > 1 order by x limit 5"); err != nil {
		t.Errorf("lowercase keywords rejected: %v", err)
	}
}

func TestParseNumbers(t *testing.T) {
	q, err := Parse("SELECT x FROM t WHERE a = -82 AND b = 2.5 AND c = 1e+10 AND d = .5")
	if err != nil {
		t.Fatal(err)
	}
	vals := []float64{-82, 2.5, 1e10, 0.5}
	for i, p := range q.Where {
		if p.Value.Value != vals[i] {
			t.Errorf("value %d = %v, want %v", i, p.Value.Value, vals[i])
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"SELECT",
		"SELECT FROM t",
		"SELECT x",
		"SELECT x FROM",
		"SELECT x FROM t WHERE",
		"SELECT x FROM t WHERE x",
		"SELECT x FROM t WHERE x BETWEEN 1",
		"SELECT x FROM t WHERE x IN",
		"SELECT x FROM t WHERE x IN (1,",
		"SELECT x FROM t trailing junk (",
		"SELECT x FROM t WHERE x = 'unterminated",
		"SELECT x FROM t WHERE x @ 3",
		"SELECT x FROM t WHERE SELECT = 3",
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestParseUnknownStringHashesStably(t *testing.T) {
	q1, err := Parse("SELECT x FROM t WHERE s = 'hello'")
	if err != nil {
		t.Fatal(err)
	}
	q2, err := Parse("SELECT x FROM t WHERE s = 'hello'")
	if err != nil {
		t.Fatal(err)
	}
	if q1.Where[0].Value.Value != q2.Where[0].Value.Value {
		t.Error("string hash must be stable")
	}
	if q1.Where[0].Value.Value < 0 {
		t.Error("hash code must be nonnegative")
	}
}

// TestRoundTrip checks Render→Parse→Render is a fixed point and the parsed
// AST matches the original structure.
func TestRoundTrip(t *testing.T) {
	cases := []*sqlgen.Query{
		{
			Select: []sqlgen.SelectItem{{Agg: sqlgen.AggCountStar}},
			From:   []sqlgen.TableRef{{Table: "t"}},
		},
		{
			Select: []sqlgen.SelectItem{
				{Col: sqlgen.ColumnRef{Table: "a", Column: "x"}},
				{Agg: sqlgen.AggAvg, Col: sqlgen.ColumnRef{Table: "b", Column: "y"}},
			},
			From: []sqlgen.TableRef{{Table: "t1", Alias: "a"}, {Table: "t2", Alias: "b"}},
			Joins: []sqlgen.JoinPred{
				{Left: sqlgen.ColumnRef{Table: "a", Column: "k"}, Right: sqlgen.ColumnRef{Table: "b", Column: "k"}, Op: sqlgen.OpEq},
				{Left: sqlgen.ColumnRef{Table: "a", Column: "d"}, Right: sqlgen.ColumnRef{Table: "b", Column: "d"}, Op: sqlgen.OpLt},
			},
			Where: []sqlgen.Predicate{
				{Col: sqlgen.ColumnRef{Table: "a", Column: "p"}, Op: sqlgen.OpBetween, Lo: sqlgen.Literal{Value: 1}, Hi: sqlgen.Literal{Value: 5}},
				{Col: sqlgen.ColumnRef{Table: "b", Column: "c"}, Op: sqlgen.OpEq, Value: sqlgen.Literal{Value: 42, IsChar: true}},
				{Col: sqlgen.ColumnRef{Table: "a", Column: "q"}, Op: sqlgen.OpIn, Values: []sqlgen.Literal{{Value: 1}, {Value: 2}}},
			},
			GroupBy: []sqlgen.ColumnRef{{Table: "a", Column: "x"}},
			OrderBy: []sqlgen.OrderItem{{Col: sqlgen.ColumnRef{Table: "a", Column: "x"}, Desc: true}},
			Limit:   10,
		},
		{
			Select: []sqlgen.SelectItem{{Agg: sqlgen.AggSum, Col: sqlgen.ColumnRef{Column: "v"}}},
			From:   []sqlgen.TableRef{{Table: "f"}},
			Where: []sqlgen.Predicate{
				{Col: sqlgen.ColumnRef{Column: "k"}, Op: sqlgen.OpIn, Subquery: &sqlgen.Query{
					Select: []sqlgen.SelectItem{{Col: sqlgen.ColumnRef{Column: "k"}}},
					From:   []sqlgen.TableRef{{Table: "d"}},
					Where: []sqlgen.Predicate{
						{Col: sqlgen.ColumnRef{Column: "year"}, Op: sqlgen.OpGe, Value: sqlgen.Literal{Value: 2000}},
					},
				}},
			},
		},
	}
	for i, q := range cases {
		sql := q.Render()
		parsed, err := Parse(sql)
		if err != nil {
			t.Fatalf("case %d: parse error: %v\nSQL: %s", i, err, sql)
		}
		if !reflect.DeepEqual(q, parsed) {
			t.Errorf("case %d: AST round trip mismatch\nSQL: %s\n got: %#v\nwant: %#v", i, sql, parsed, q)
		}
		if again := parsed.Render(); again != sql {
			t.Errorf("case %d: render not a fixed point:\n1st: %s\n2nd: %s", i, sql, again)
		}
	}
}

func TestTextStatsFromText(t *testing.T) {
	src := "SELECT COUNT(*) FROM t1 AS a, t2 AS b WHERE a.k = b.k AND a.x > 3 ORDER BY a.x"
	ts, err := TextStats(src)
	if err != nil {
		t.Fatal(err)
	}
	if ts.JoinPreds != 1 || ts.SelectionPreds != 1 || ts.SortColumns != 1 || ts.AggregationColumns != 1 {
		t.Errorf("stats wrong: %+v", ts)
	}
	if _, err := TextStats("not sql"); err == nil {
		t.Error("TextStats on garbage should error")
	}
	if !strings.Contains(src, "WHERE") {
		t.Error("sanity")
	}
}

// TestLongClauseLists drives every clause past the number of items the
// parser collects in its own frame, with a subquery that does the same in
// the middle of its parent's WHERE, so the spill and the mark/take nesting
// are both exercised.
func TestLongClauseLists(t *testing.T) {
	build := func(n int, sub *sqlgen.Query) *sqlgen.Query {
		q := &sqlgen.Query{}
		for i := 0; i < n; i++ {
			tab := "t" + string(rune('a'+i%26)) + string(rune('a'+i/26))
			c := sqlgen.ColumnRef{Table: tab, Column: "c"}
			q.Select = append(q.Select, sqlgen.SelectItem{Col: c})
			q.From = append(q.From, sqlgen.TableRef{Table: tab})
			q.GroupBy = append(q.GroupBy, c)
			q.OrderBy = append(q.OrderBy, sqlgen.OrderItem{Col: c, Desc: i%2 == 0})
			q.Joins = append(q.Joins, sqlgen.JoinPred{Left: c, Right: sqlgen.ColumnRef{Table: tab, Column: "d"}, Op: sqlgen.OpLe})
			var vals []sqlgen.Literal
			for k := 0; k <= i; k++ {
				vals = append(vals, sqlgen.Literal{Value: float64(k)})
			}
			q.Where = append(q.Where, sqlgen.Predicate{Col: c, Op: sqlgen.OpIn, Values: vals})
			if sub != nil && i == n/2 {
				q.Where = append(q.Where, sqlgen.Predicate{Col: c, Op: sqlgen.OpIn, Subquery: sub})
			}
		}
		q.Select = append(q.Select, sqlgen.SelectItem{Agg: sqlgen.AggCountStar})
		return q
	}
	for _, n := range []int{7, 8, 9, 23} {
		q := build(n, build(n+2, nil))
		sql := q.Render()
		parsed, err := Parse(sql)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !reflect.DeepEqual(q, parsed) {
			t.Errorf("n=%d: AST round trip mismatch\nSQL: %s", n, sql)
		}
	}
}

// TestLexerByteClasses pins the identifier alphabet: [A-Za-z_][A-Za-z0-9_]*.
// A byte outside ASCII — whether it is a Latin-1 letter (0xAA, 0xB5, 0xC3),
// a UTF-8 lead byte or a continuation byte — is rejected where it stands,
// and is still free text inside a string literal.
func TestLexerByteClasses(t *testing.T) {
	for _, tc := range []struct{ sql, want string }{
		{"SELECT a FROM t WHERE caf\xc3\xa9 = 1", `sqlparse: unexpected character 'Ã' at offset 25`},
		{"SELECT \xaa FROM t", `sqlparse: unexpected character 'ª' at offset 7`},
		{"SELECT a\xb5 FROM t", `sqlparse: unexpected character 'µ' at offset 8`},
		{"SELECT a FROM t\xa9", `sqlparse: unexpected character '©' at offset 15`},
		{"SELECT a FROM \xe2\x84\xaa", `sqlparse: unexpected character 'â' at offset 14`},
		{"SELECT a$ FROM t", `sqlparse: unexpected character '$' at offset 8`},
		// A lexical error outranks the syntax error in front of it.
		{"SELECT ( FROM WHERE \xc3\xa9", `sqlparse: unexpected character 'Ã' at offset 20`},
		{"SELECT FROM 'open", `sqlparse: unterminated string at offset 12`},
	} {
		_, err := Parse(tc.sql)
		if err == nil || err.Error() != tc.want {
			t.Errorf("Parse(%q) = %v, want %s", tc.sql, err, tc.want)
		}
	}
	q, err := Parse("SELECT _a1, B_2 FROM t WHERE c = 'caf\xc3\xa9 \xaa'")
	if err != nil {
		t.Fatal(err)
	}
	if q.Select[0].Col.Column != "_a1" || q.Select[1].Col.Column != "B_2" || !q.Where[0].Value.IsChar {
		t.Errorf("parsed %+v", q)
	}
}

// TestKeywordClassification: keywords and aggregate names are recognised in
// any ASCII case, near misses are plain identifiers, and an aggregate name
// is only an aggregate in front of a parenthesis.
func TestKeywordClassification(t *testing.T) {
	for k := kwSelect; k <= kwMax; k++ {
		up := keywordText[k]
		for _, s := range []string{up, strings.ToLower(up), strings.ToLower(up[:1]) + up[1:]} {
			if got := classify(s); got != k {
				t.Errorf("classify(%q) = %d, want %d", s, got, k)
			}
		}
		for _, s := range []string{up + "S", up[1:], "_" + up[1:], "0" + up[1:], up[:len(up)-1] + "\x10"} {
			if got := classify(s); got != kwNone && keywordText[got] != strings.ToUpper(s) {
				t.Errorf("classify(%q) = %s", s, keywordText[got])
			}
		}
	}
	q, err := Parse("select Min, COUNT from Max where Sum = avg and count(x) in (select count from t)")
	if err == nil {
		t.Fatalf("count(x) on the left of IN parsed: %+v", q)
	}
	q, err = Parse("sElEcT min(Min), count FROM Max wHeRe Sum = avg gRoUp bY count")
	if err != nil {
		t.Fatal(err)
	}
	if q.Select[0].Agg != sqlgen.AggMin || q.Select[0].Col.Column != "Min" || q.Select[1].Col.Column != "count" ||
		q.From[0].Table != "Max" || len(q.Joins) != 1 || q.GroupBy[0].Column != "count" {
		t.Errorf("parsed %+v", q)
	}
}

// TestParseAllocs: the parser allocates the AST and nothing else — the
// query node plus one exactly sized slice per clause present.
func TestParseAllocs(t *testing.T) {
	sql := "SELECT i_category, SUM(ss_ext_sales_price), COUNT(*) FROM store_sales, item WHERE ss_item_sk = i_item_sk AND ss_sold_date_sk BETWEEN 2451000 AND 2451100 AND i_category IN ('v3', 'v4') GROUP BY i_category ORDER BY i_category LIMIT 100"
	got := testing.AllocsPerRun(100, func() {
		if _, err := Parse(sql); err != nil {
			t.Fatal(err)
		}
	})
	// Query, Select, From, Joins, Where, IN list, GroupBy, OrderBy.
	if got > 8 {
		t.Errorf("Parse allocates %.0f objects, want 8", got)
	}
}
