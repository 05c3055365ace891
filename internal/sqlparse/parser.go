package sqlparse

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/arena"
	"repro/internal/sqlgen"
)

// Parse parses a SELECT statement in the sqlgen dialect and returns its AST.
// The AST — a node per (sub)query and one exactly sized slice per clause —
// is all it allocates; the names in it are slices of src.
func Parse(src string) (*sqlgen.Query, error) {
	var a *Arena
	return a.Parse(src)
}

// Arena is storage for parse trees that a caller drops soon after parsing:
// the (sub)query nodes and clause slices of a tree come from it, and Reset
// takes them back for the next parse. The zero Arena is ready to use. A nil
// *Arena allocates each tree exactly sized, as Parse does.
type Arena struct {
	queries arena.Slab[sqlgen.Query]
	sel     arena.Slab[sqlgen.SelectItem]
	from    arena.Slab[sqlgen.TableRef]
	joins   arena.Slab[sqlgen.JoinPred]
	where   arena.Slab[sqlgen.Predicate]
	cols    arena.Slab[sqlgen.ColumnRef]
	order   arena.Slab[sqlgen.OrderItem]
	lits    arena.Slab[sqlgen.Literal]
}

// Parse is the package's Parse with the tree carved from the arena: it
// stays valid until the next Reset. Once the arena has grown to the
// statements it sees, parsing allocates nothing.
func (a *Arena) Parse(src string) (*sqlgen.Query, error) {
	p := parser{lx: lexer{src: src}}
	if a != nil {
		p.queries = &a.queries
		p.sel.into, p.from.into, p.joins.into, p.where.into = &a.sel, &a.from, &a.joins, &a.where
		p.cols.into, p.order.into, p.lits.into = &a.cols, &a.order, &a.lits
	}
	p.tok, p.peek = p.lex(), p.lex()
	q, err := p.parseQuery()
	if err == nil && p.tok.kind != tokEOF {
		err = fmt.Errorf("sqlparse: trailing input at %q", p.tok)
	}
	// A lexical error anywhere in the statement outranks a syntax error
	// before it, as when the whole statement was lexed up front.
	if err != nil {
		for p.lexErr == nil && p.peek.kind != tokEOF {
			p.advance()
		}
	}
	if p.lexErr != nil {
		return nil, p.lexErr
	}
	if err != nil {
		return nil, err
	}
	return q, nil
}

// Poison written over a reset arena's elements: names no statement can
// spell, a NaN for every literal, operators outside their enumerations.
const poisonName = "\x00released"

var (
	poisonCol = sqlgen.ColumnRef{Table: poisonName, Column: poisonName}
	poisonLit = sqlgen.Literal{Value: math.NaN()}
)

// Reset takes back every tree parsed from the arena since the last Reset,
// poisoning its storage: nothing parsed from it may be read afterwards.
func (a *Arena) Reset() {
	a.queries.Reset(sqlgen.Query{Limit: -1})
	a.sel.Reset(sqlgen.SelectItem{Agg: -1, Col: poisonCol})
	a.from.Reset(sqlgen.TableRef{Table: poisonName, Alias: poisonName})
	a.joins.Reset(sqlgen.JoinPred{Left: poisonCol, Right: poisonCol, Op: -1})
	a.where.Reset(sqlgen.Predicate{Col: poisonCol, Op: -1, Value: poisonLit, Lo: poisonLit, Hi: poisonLit})
	a.cols.Reset(poisonCol)
	a.order.Reset(sqlgen.OrderItem{Col: poisonCol})
	a.lits.Reset(poisonLit)
}

// Bytes reports the storage the arena keeps between parses.
func (a *Arena) Bytes() int {
	return a.queries.Bytes() + a.sel.Bytes() + a.from.Bytes() + a.joins.Bytes() +
		a.where.Bytes() + a.cols.Bytes() + a.order.Bytes() + a.lits.Bytes()
}

// TextStats parses src and returns the nine SQL-text statistics of
// Sec. VI-D.1 of the paper.
func TextStats(src string) (sqlgen.TextStats, error) {
	q, err := Parse(src)
	if err != nil {
		return sqlgen.TextStats{}, err
	}
	return q.Stats(), nil
}

// parser pulls tokens from the lexer as it needs them, holding the current
// token and one of lookahead.
type parser struct {
	lx        lexer
	tok, peek token
	// lexErr is the first lexical error met; the tokens from there on read
	// as end of input.
	lexErr error

	// Clause items still being collected. A subquery pushes above its
	// parent's items and takes back down to where it started.
	sel   stack[sqlgen.SelectItem]
	from  stack[sqlgen.TableRef]
	joins stack[sqlgen.JoinPred]
	where stack[sqlgen.Predicate]
	cols  stack[sqlgen.ColumnRef]
	order stack[sqlgen.OrderItem]
	lits  stack[sqlgen.Literal]
	// queries is where (sub)query nodes come from: an arena's, or nil for
	// one exactly sized allocation each.
	queries *arena.Slab[sqlgen.Query]
}

// stack collects the items of a clause whose length is not known until it
// ends. The first few live inside the stack itself — so inside the parser,
// which stays in Parse's frame — and only a longer list spills to the heap.
// A finished clause is carved from into: an arena's slab, or nil for an
// exactly sized allocation.
type stack[T any] struct {
	n      int
	inline [8]T
	spill  []T
	into   *arena.Slab[T]
}

func (s *stack[T]) push(v T) {
	if s.n < len(s.inline) {
		s.inline[s.n] = v
	} else {
		s.spill = append(s.spill[:s.n-len(s.inline)], v)
	}
	s.n++
}

// take pops the items pushed since the stack held mark of them into a slice
// of exactly their number (nil for none).
func (s *stack[T]) take(mark int) []T {
	if s.n == mark {
		return nil
	}
	out := s.into.Take(s.n - mark)
	k := 0
	if mark < len(s.inline) {
		k = copy(out, s.inline[mark:min(s.n, len(s.inline))])
	}
	if s.n > len(s.inline) {
		copy(out[k:], s.spill[max(mark, len(s.inline))-len(s.inline):s.n-len(s.inline)])
	}
	s.n = mark
	return out
}

// lex scans one more token; after a lexical error the source reads as
// ended.
func (p *parser) lex() token {
	t, err := p.lx.next()
	if err != nil {
		p.lexErr = err
		p.lx.pos = len(p.lx.src)
	}
	return t
}

// advance consumes the current token and returns it.
func (p *parser) advance() token {
	t := p.tok
	p.tok, p.peek = p.peek, p.lex()
	return t
}

func (p *parser) acceptKeyword(kw keyword) bool {
	if p.tok.kw == kw {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw keyword) error {
	if !p.acceptKeyword(kw) {
		return fmt.Errorf("sqlparse: expected %s, found %q", keywordText[kw], p.tok)
	}
	return nil
}

func (p *parser) expect(kind tokenKind, what string) (token, error) {
	if p.tok.kind != kind {
		return token{}, fmt.Errorf("sqlparse: expected %s, found %q", what, p.tok)
	}
	return p.advance(), nil
}

// aggOf maps an aggregate-name keyword to its function.
func aggOf(kw keyword) (sqlgen.AggFunc, bool) {
	switch kw {
	case kwCount:
		return sqlgen.AggCount, true
	case kwSum:
		return sqlgen.AggSum, true
	case kwAvg:
		return sqlgen.AggAvg, true
	case kwMin:
		return sqlgen.AggMin, true
	case kwMax:
		return sqlgen.AggMax, true
	}
	return sqlgen.AggNone, false
}

func (p *parser) parseQuery() (*sqlgen.Query, error) {
	if err := p.expectKeyword(kwSelect); err != nil {
		return nil, err
	}
	q := &p.queries.Take(1)[0]
	mark := p.sel.n
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		p.sel.push(item)
		if p.tok.kind != tokComma {
			break
		}
		p.advance()
	}
	q.Select = p.sel.take(mark)
	if err := p.expectKeyword(kwFrom); err != nil {
		return nil, err
	}
	mark = p.from.n
	for {
		tref, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		p.from.push(tref)
		if p.tok.kind != tokComma {
			break
		}
		p.advance()
	}
	q.From = p.from.take(mark)
	if p.acceptKeyword(kwWhere) {
		whereMark, joinMark := p.where.n, p.joins.n
		for {
			if err := p.parseCondition(); err != nil {
				return nil, err
			}
			if !p.acceptKeyword(kwAnd) {
				break
			}
		}
		q.Where, q.Joins = p.where.take(whereMark), p.joins.take(joinMark)
	}
	if p.acceptKeyword(kwGroup) {
		if err := p.expectKeyword(kwBy); err != nil {
			return nil, err
		}
		mark = p.cols.n
		for {
			col, err := p.parseColumnRef()
			if err != nil {
				return nil, err
			}
			p.cols.push(col)
			if p.tok.kind != tokComma {
				break
			}
			p.advance()
		}
		q.GroupBy = p.cols.take(mark)
	}
	if p.acceptKeyword(kwOrder) {
		if err := p.expectKeyword(kwBy); err != nil {
			return nil, err
		}
		mark = p.order.n
		for {
			col, err := p.parseColumnRef()
			if err != nil {
				return nil, err
			}
			p.order.push(sqlgen.OrderItem{Col: col, Desc: p.acceptKeyword(kwDesc)})
			if p.tok.kind != tokComma {
				break
			}
			p.advance()
		}
		q.OrderBy = p.order.take(mark)
	}
	if p.acceptKeyword(kwLimit) {
		t, err := p.expect(tokNumber, "LIMIT count")
		if err != nil {
			return nil, err
		}
		q.Limit = int(t.num)
	}
	return q, nil
}

func (p *parser) parseSelectItem() (sqlgen.SelectItem, error) {
	if agg, ok := aggOf(p.tok.kw); ok && p.peek.kind == tokLParen {
		p.advance() // agg name
		p.advance() // (
		if agg == sqlgen.AggCount && p.tok.kind == tokStar {
			p.advance()
			if _, err := p.expect(tokRParen, ")"); err != nil {
				return sqlgen.SelectItem{}, err
			}
			return sqlgen.SelectItem{Agg: sqlgen.AggCountStar}, nil
		}
		col, err := p.parseColumnRef()
		if err != nil {
			return sqlgen.SelectItem{}, err
		}
		if _, err := p.expect(tokRParen, ")"); err != nil {
			return sqlgen.SelectItem{}, err
		}
		return sqlgen.SelectItem{Agg: agg, Col: col}, nil
	}
	col, err := p.parseColumnRef()
	if err != nil {
		return sqlgen.SelectItem{}, err
	}
	return sqlgen.SelectItem{Col: col}, nil
}

func (p *parser) parseTableRef() (sqlgen.TableRef, error) {
	t, err := p.expect(tokIdent, "table name")
	if err != nil {
		return sqlgen.TableRef{}, err
	}
	ref := sqlgen.TableRef{Table: t.text}
	if p.acceptKeyword(kwAs) {
		a, err := p.expect(tokIdent, "alias")
		if err != nil {
			return sqlgen.TableRef{}, err
		}
		ref.Alias = a.text
	} else if p.tok.kind == tokIdent && !p.tok.kw.reserved() {
		ref.Alias = p.advance().text
	}
	return ref, nil
}

func (p *parser) parseColumnRef() (sqlgen.ColumnRef, error) {
	t, err := p.expect(tokIdent, "column reference")
	if err != nil {
		return sqlgen.ColumnRef{}, err
	}
	if t.kw.reserved() {
		return sqlgen.ColumnRef{}, fmt.Errorf("sqlparse: reserved word %q used as identifier", t.text)
	}
	if p.tok.kind == tokDot {
		p.advance()
		c, err := p.expect(tokIdent, "column name after '.'")
		if err != nil {
			return sqlgen.ColumnRef{}, err
		}
		return sqlgen.ColumnRef{Table: t.text, Column: c.text}, nil
	}
	return sqlgen.ColumnRef{Column: t.text}, nil
}

func (p *parser) parseLiteral() (sqlgen.Literal, error) {
	t := p.tok
	switch t.kind {
	case tokNumber:
		p.advance()
		return sqlgen.Literal{Value: t.num}, nil
	case tokString:
		p.advance()
		return sqlgen.Literal{Value: parseCharCode(t.text), IsChar: true}, nil
	default:
		return sqlgen.Literal{}, fmt.Errorf("sqlparse: expected literal, found %q", t)
	}
}

// parseCharCode decodes the dictionary-code string form "vNNN" used by the
// synthetic dialect; any other string hashes to a stable code so that
// hand-written SQL still parses.
func parseCharCode(s string) float64 {
	if len(s) >= 2 && s[0] == 'v' {
		if n, err := strconv.ParseInt(s[1:], 10, 64); err == nil {
			return float64(n)
		}
	}
	var h uint32 = 2166136261
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return math.Abs(float64(h % 100000))
}

// parseSubquery parses "SELECT ... )", the opening parenthesis consumed.
func (p *parser) parseSubquery() (*sqlgen.Query, error) {
	sub, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokRParen, ")"); err != nil {
		return nil, err
	}
	return sub, nil
}

// parseCondition parses one AND-ed condition onto the where or joins stack.
func (p *parser) parseCondition() error {
	if p.acceptKeyword(kwExists) {
		if _, err := p.expect(tokLParen, "("); err != nil {
			return err
		}
		sub, err := p.parseSubquery()
		if err != nil {
			return err
		}
		p.where.push(sqlgen.Predicate{Op: sqlgen.OpIn, Exists: true, Subquery: sub})
		return nil
	}
	col, err := p.parseColumnRef()
	if err != nil {
		return err
	}
	t := p.tok
	switch t.kw {
	case kwBetween:
		p.advance()
		lo, err := p.parseLiteral()
		if err != nil {
			return err
		}
		if err := p.expectKeyword(kwAnd); err != nil {
			return err
		}
		hi, err := p.parseLiteral()
		if err != nil {
			return err
		}
		p.where.push(sqlgen.Predicate{Col: col, Op: sqlgen.OpBetween, Lo: lo, Hi: hi})
		return nil
	case kwIn:
		p.advance()
		if _, err := p.expect(tokLParen, "("); err != nil {
			return err
		}
		if p.tok.kw == kwSelect {
			sub, err := p.parseSubquery()
			if err != nil {
				return err
			}
			p.where.push(sqlgen.Predicate{Col: col, Op: sqlgen.OpIn, Subquery: sub})
			return nil
		}
		mark := p.lits.n
		for {
			v, err := p.parseLiteral()
			if err != nil {
				return err
			}
			p.lits.push(v)
			if p.tok.kind != tokComma {
				break
			}
			p.advance()
		}
		if _, err := p.expect(tokRParen, ")"); err != nil {
			return err
		}
		p.where.push(sqlgen.Predicate{Col: col, Op: sqlgen.OpIn, Values: p.lits.take(mark)})
		return nil
	}
	var op sqlgen.CmpOp
	switch t.kind {
	case tokEq:
		op = sqlgen.OpEq
	case tokNe:
		op = sqlgen.OpNe
	case tokLt:
		op = sqlgen.OpLt
	case tokLe:
		op = sqlgen.OpLe
	case tokGt:
		op = sqlgen.OpGt
	case tokGe:
		op = sqlgen.OpGe
	default:
		return fmt.Errorf("sqlparse: expected comparison operator, found %q", t)
	}
	p.advance()
	// Identifier on the right-hand side means a join predicate; a literal
	// means a selection predicate.
	if p.tok.kind == tokIdent && !p.tok.kw.reserved() {
		right, err := p.parseColumnRef()
		if err != nil {
			return err
		}
		p.joins.push(sqlgen.JoinPred{Left: col, Right: right, Op: op})
		return nil
	}
	lit, err := p.parseLiteral()
	if err != nil {
		return err
	}
	p.where.push(sqlgen.Predicate{Col: col, Op: op, Value: lit})
	return nil
}
