// Package sqlgen defines the abstract syntax tree for the SQL dialect used
// by the reproduction's workload generator, plus rendering of ASTs to SQL
// text. The dialect covers the constructs the paper's feature vectors
// measure: multi-way joins (equi and non-equi), selection predicates
// (equality, range, IN lists), nested subqueries (IN / EXISTS), grouping,
// aggregation, ordering, and LIMIT.
package sqlgen

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// CmpOp enumerates comparison operators.
type CmpOp int

const (
	OpEq CmpOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpBetween
	OpIn
)

func (op CmpOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNe:
		return "<>"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpBetween:
		return "BETWEEN"
	case OpIn:
		return "IN"
	default:
		return fmt.Sprintf("op(%d)", int(op))
	}
}

// IsEquality reports whether the operator is an equality comparison.
func (op CmpOp) IsEquality() bool { return op == OpEq }

// AggFunc enumerates aggregate functions.
type AggFunc int

const (
	AggNone AggFunc = iota
	AggCount
	AggCountStar
	AggSum
	AggAvg
	AggMin
	AggMax
)

func (a AggFunc) String() string {
	switch a {
	case AggNone:
		return ""
	case AggCount, AggCountStar:
		return "COUNT"
	case AggSum:
		return "SUM"
	case AggAvg:
		return "AVG"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	default:
		return fmt.Sprintf("agg(%d)", int(a))
	}
}

// ColumnRef names a column, optionally qualified by table name or alias.
type ColumnRef struct {
	Table  string // table name or alias; may be empty
	Column string
}

func (c ColumnRef) String() string {
	if c.Table == "" {
		return c.Column
	}
	return c.Table + "." + c.Column
}

// SelectItem is one output expression: either a plain column or an
// aggregate over a column (or COUNT(*)).
type SelectItem struct {
	Agg AggFunc
	Col ColumnRef // ignored for AggCountStar
}

// TableRef is a FROM-list entry.
type TableRef struct {
	Table string
	Alias string // empty means no alias
}

// Name returns the alias if set, else the table name.
func (t TableRef) Name() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Table
}

// JoinPred is a join predicate between two columns.
type JoinPred struct {
	Left, Right ColumnRef
	Op          CmpOp // OpEq for equijoin; others are non-equijoins
}

// Literal is a predicate constant. Char-typed values are stored as
// dictionary codes and rendered as quoted strings.
type Literal struct {
	Value  float64
	IsChar bool
}

// Render formats the literal as SQL text. Integral values render without
// exponent notation so that surrogate keys read naturally.
func (l Literal) Render() string {
	if l.IsChar {
		return "'v" + strconv.FormatInt(int64(l.Value), 10) + "'"
	}
	if l.Value == math.Trunc(l.Value) && math.Abs(l.Value) < 1e15 {
		return strconv.FormatInt(int64(l.Value), 10)
	}
	return strconv.FormatFloat(l.Value, 'g', -1, 64)
}

// Predicate is one WHERE-clause selection predicate on a single column.
// Exactly one of the value fields is used depending on Op:
//
//	OpEq..OpGe  -> Value
//	OpBetween   -> Lo, Hi
//	OpIn        -> Values (literal list) or Subquery
//
// Exists predicates have Exists == true and use only Subquery.
type Predicate struct {
	Col      ColumnRef
	Op       CmpOp
	Value    Literal
	Lo, Hi   Literal
	Values   []Literal
	Subquery *Query
	Exists   bool
}

// OrderItem is one ORDER BY entry.
type OrderItem struct {
	Col  ColumnRef
	Desc bool
}

// Query is a SELECT statement.
type Query struct {
	Select  []SelectItem
	From    []TableRef
	Joins   []JoinPred
	Where   []Predicate
	GroupBy []ColumnRef
	OrderBy []OrderItem
	Limit   int // 0 means no limit
}

// HasAggregate reports whether any select item is an aggregate.
func (q *Query) HasAggregate() bool {
	for _, s := range q.Select {
		if s.Agg != AggNone {
			return true
		}
	}
	return false
}

// TextStats are the nine SQL-text statistics of Sec. VI-D.1, computed over
// the whole statement including nested subqueries.
type TextStats struct {
	NestedSubqueries   int
	SelectionPreds     int
	EqualitySelections int
	NonEqualitySelects int
	JoinPreds          int
	EquijoinPreds      int
	NonEquijoinPreds   int
	SortColumns        int
	AggregationColumns int
}

// Vector returns the statistics as a feature vector in a fixed order.
func (ts TextStats) Vector() []float64 {
	return []float64{
		float64(ts.NestedSubqueries),
		float64(ts.SelectionPreds),
		float64(ts.EqualitySelections),
		float64(ts.NonEqualitySelects),
		float64(ts.JoinPreds),
		float64(ts.EquijoinPreds),
		float64(ts.NonEquijoinPreds),
		float64(ts.SortColumns),
		float64(ts.AggregationColumns),
	}
}

// Stats computes the SQL-text statistics for the query, recursing into
// subqueries.
func (q *Query) Stats() TextStats {
	var ts TextStats
	q.accumulate(&ts)
	return ts
}

func (q *Query) accumulate(ts *TextStats) {
	for _, p := range q.Where {
		ts.SelectionPreds++
		if p.Op.IsEquality() {
			ts.EqualitySelections++
		} else {
			ts.NonEqualitySelects++
		}
		if p.Subquery != nil {
			ts.NestedSubqueries++
			p.Subquery.accumulate(ts)
		}
	}
	for _, j := range q.Joins {
		ts.JoinPreds++
		if j.Op.IsEquality() {
			ts.EquijoinPreds++
		} else {
			ts.NonEquijoinPreds++
		}
	}
	ts.SortColumns += len(q.OrderBy)
	for _, s := range q.Select {
		if s.Agg != AggNone {
			ts.AggregationColumns++
		}
	}
}

// Tables returns the names (not aliases) of all tables referenced in the
// FROM clause, including those of nested subqueries.
func (q *Query) Tables() []string {
	var out []string
	q.collectTables(&out)
	return out
}

func (q *Query) collectTables(out *[]string) {
	for _, t := range q.From {
		*out = append(*out, t.Table)
	}
	for _, p := range q.Where {
		if p.Subquery != nil {
			p.Subquery.collectTables(out)
		}
	}
}

// Validate performs structural sanity checks: non-empty SELECT and FROM,
// join predicates referencing known FROM entries, and plain select columns
// appearing in GROUP BY when aggregates are present.
func (q *Query) Validate() error {
	if len(q.Select) == 0 {
		return fmt.Errorf("sqlgen: query has no select items")
	}
	if len(q.From) == 0 {
		return fmt.Errorf("sqlgen: query has no FROM tables")
	}
	// FROM lists are a handful of entries: scanning them beats building a
	// set, and planning validates every query it sees.
	for i, t := range q.From {
		if q.hasFromName(t.Name(), i) {
			return fmt.Errorf("sqlgen: duplicate FROM name %q", t.Name())
		}
	}
	check := func(c ColumnRef) error {
		if c.Table != "" && !q.hasFromName(c.Table, len(q.From)) {
			return fmt.Errorf("sqlgen: column %s references unknown table %q", c, c.Table)
		}
		return nil
	}
	for _, j := range q.Joins {
		if err := check(j.Left); err != nil {
			return err
		}
		if err := check(j.Right); err != nil {
			return err
		}
	}
	for i := range q.Where {
		p := &q.Where[i]
		if !p.Exists {
			if err := check(p.Col); err != nil {
				return err
			}
		}
		if p.Subquery != nil {
			if err := p.Subquery.Validate(); err != nil {
				return err
			}
		}
	}
	if q.HasAggregate() {
		for _, s := range q.Select {
			if s.Agg == AggNone && !q.grouped(s.Col) {
				return fmt.Errorf("sqlgen: non-aggregated column %s missing from GROUP BY", s.Col)
			}
		}
	}
	return nil
}

// hasFromName reports whether one of the first n FROM entries goes by name.
func (q *Query) hasFromName(name string, n int) bool {
	for _, t := range q.From[:n] {
		if t.Name() == name {
			return true
		}
	}
	return false
}

// grouped reports whether c is spelled the same as a GROUP BY column.
func (q *Query) grouped(c ColumnRef) bool {
	for _, g := range q.GroupBy {
		if g == c || sameText(g, c) {
			return true
		}
	}
	return false
}

// sameText reports whether a.String() == b.String() without building
// either string.
func sameText(a, b ColumnRef) bool {
	n := a.textLen()
	if n != b.textLen() {
		return false
	}
	for i := 0; i < n; i++ {
		if a.textAt(i) != b.textAt(i) {
			return false
		}
	}
	return true
}

func (c ColumnRef) textLen() int {
	if c.Table == "" {
		return len(c.Column)
	}
	return len(c.Table) + 1 + len(c.Column)
}

func (c ColumnRef) textAt(i int) byte {
	switch {
	case c.Table == "":
		return c.Column[i]
	case i < len(c.Table):
		return c.Table[i]
	case i == len(c.Table):
		return '.'
	}
	return c.Column[i-len(c.Table)-1]
}

// Render produces the SQL text for the query.
func (q *Query) Render() string {
	var sb strings.Builder
	q.render(&sb)
	return sb.String()
}

func (q *Query) render(sb *strings.Builder) {
	sb.WriteString("SELECT ")
	for i, s := range q.Select {
		if i > 0 {
			sb.WriteString(", ")
		}
		switch {
		case s.Agg == AggCountStar:
			sb.WriteString("COUNT(*)")
		case s.Agg != AggNone:
			sb.WriteString(s.Agg.String())
			sb.WriteByte('(')
			sb.WriteString(s.Col.String())
			sb.WriteByte(')')
		default:
			sb.WriteString(s.Col.String())
		}
	}
	sb.WriteString(" FROM ")
	for i, t := range q.From {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(t.Table)
		if t.Alias != "" {
			sb.WriteString(" AS ")
			sb.WriteString(t.Alias)
		}
	}
	conds := 0
	writeCond := func() {
		if conds == 0 {
			sb.WriteString(" WHERE ")
		} else {
			sb.WriteString(" AND ")
		}
		conds++
	}
	for _, j := range q.Joins {
		writeCond()
		sb.WriteString(j.Left.String())
		sb.WriteByte(' ')
		sb.WriteString(j.Op.String())
		sb.WriteByte(' ')
		sb.WriteString(j.Right.String())
	}
	for _, p := range q.Where {
		writeCond()
		p.render(sb)
	}
	if len(q.GroupBy) > 0 {
		sb.WriteString(" GROUP BY ")
		for i, g := range q.GroupBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(g.String())
		}
	}
	if len(q.OrderBy) > 0 {
		sb.WriteString(" ORDER BY ")
		for i, o := range q.OrderBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(o.Col.String())
			if o.Desc {
				sb.WriteString(" DESC")
			}
		}
	}
	if q.Limit > 0 {
		fmt.Fprintf(sb, " LIMIT %d", q.Limit)
	}
}

func (p *Predicate) render(sb *strings.Builder) {
	if p.Exists {
		sb.WriteString("EXISTS (")
		p.Subquery.render(sb)
		sb.WriteByte(')')
		return
	}
	sb.WriteString(p.Col.String())
	switch p.Op {
	case OpBetween:
		sb.WriteString(" BETWEEN ")
		sb.WriteString(p.Lo.Render())
		sb.WriteString(" AND ")
		sb.WriteString(p.Hi.Render())
	case OpIn:
		sb.WriteString(" IN (")
		if p.Subquery != nil {
			p.Subquery.render(sb)
		} else {
			for i, v := range p.Values {
				if i > 0 {
					sb.WriteString(", ")
				}
				sb.WriteString(v.Render())
			}
		}
		sb.WriteByte(')')
	default:
		sb.WriteByte(' ')
		sb.WriteString(p.Op.String())
		sb.WriteByte(' ')
		sb.WriteString(p.Value.Render())
	}
}
