// Package sqlparse implements a lexer and recursive-descent parser for the
// SQL dialect emitted by sqlgen. It exists so that the SQL-text feature
// vector (Sec. VI-D.1 of the paper) can be computed from query *text* the
// way a real deployment would — by parsing the statement — and so that
// rendered queries round-trip back to identical ASTs (tested property).
//
// The parser sits on the serving tier's plan-cache miss path, so it is
// built to allocate only the AST it returns: tokens are produced on demand
// (never collected), token text is a slice of the source, and keywords are
// recognised once, when the identifier is lexed.
package sqlparse

import (
	"fmt"
	"strconv"
)

type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokComma
	tokDot
	tokLParen
	tokRParen
	tokStar
	tokEq
	tokNe
	tokLt
	tokLe
	tokGt
	tokGe
)

// keyword classifies an identifier token. The reserved words come first so
// that one comparison answers "may this be a table, column or alias name";
// the aggregate names are ordinary identifiers unless a '(' follows.
type keyword uint8

const (
	kwNone keyword = iota
	kwSelect
	kwFrom
	kwWhere
	kwAnd
	kwGroup
	kwOrder
	kwBy
	kwLimit
	kwAs
	kwIn
	kwBetween
	kwExists
	kwDesc
	kwCount
	kwSum
	kwAvg
	kwMin
	kwMax
)

var keywordText = [...]string{
	kwSelect: "SELECT", kwFrom: "FROM", kwWhere: "WHERE", kwAnd: "AND",
	kwGroup: "GROUP", kwOrder: "ORDER", kwBy: "BY", kwLimit: "LIMIT",
	kwAs: "AS", kwIn: "IN", kwBetween: "BETWEEN", kwExists: "EXISTS", kwDesc: "DESC",
	kwCount: "COUNT", kwSum: "SUM", kwAvg: "AVG", kwMin: "MIN", kwMax: "MAX",
}

func (k keyword) reserved() bool { return k != kwNone && k <= kwDesc }

// classify returns the keyword an identifier spells, ignoring ASCII case.
func classify(s string) keyword {
	if len(s) < 2 || len(s) > 7 {
		return kwNone // shorter than BY, longer than BETWEEN
	}
	for k := kwSelect; k <= kwMax; k++ {
		if foldsTo(s, keywordText[k]) {
			return k
		}
	}
	return kwNone
}

// foldsTo reports whether s equals the upper-case ASCII word upper when
// case is ignored. Clearing bit 5 maps a–z onto A–Z and maps no other
// identifier byte (digit, underscore) onto a letter, so the test is exact.
func foldsTo(s, upper string) bool {
	if len(s) != len(upper) {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i]&^0x20 != upper[i] {
			return false
		}
	}
	return true
}

// token is one lexical unit; text is always a slice of the source (for a
// string literal, the part between the quotes).
type token struct {
	kind tokenKind
	kw   keyword // for tokIdent
	text string
	num  float64 // for tokNumber
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "<eof>"
	case tokString:
		return "'" + t.text + "'"
	default:
		return t.text
	}
}

// Byte classes. Identifiers are [A-Za-z_][A-Za-z0-9_]*: a byte outside
// ASCII never starts or continues one, so UTF-8 text outside a string
// literal is rejected at its first byte rather than lexed by Latin-1 rules.
const (
	classSpace uint8 = 1 << iota
	classDigit
	classIdentStart
	classIdentPart
)

var byteClass = func() (tab [256]uint8) {
	for _, c := range " \t\n\r" {
		tab[c] = classSpace
	}
	for c := '0'; c <= '9'; c++ {
		tab[c] = classDigit | classIdentPart
	}
	for c := 'a'; c <= 'z'; c++ {
		tab[c] = classIdentStart | classIdentPart
		tab[c-'a'+'A'] = classIdentStart | classIdentPart
	}
	tab['_'] = classIdentStart | classIdentPart
	return tab
}()

func isDigit(c byte) bool { return byteClass[c]&classDigit != 0 }

type lexer struct {
	src string
	pos int
}

// next scans the next token from the source.
func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) && byteClass[l.src[l.pos]]&classSpace != 0 {
		l.pos++
	}
	if l.pos >= len(l.src) {
		return token{kind: tokEOF}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	if byteClass[c]&classIdentStart != 0 {
		for l.pos < len(l.src) && byteClass[l.src[l.pos]]&classIdentPart != 0 {
			l.pos++
		}
		text := l.src[start:l.pos]
		return token{kind: tokIdent, kw: classify(text), text: text}, nil
	}
	kind := tokEOF
	switch c {
	case ',':
		kind = tokComma
	case '.':
		// Dot is either a qualifier separator or the start of a number like
		// ".5"; a digit after the dot disambiguates.
		if l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1]) {
			return l.lexNumber()
		}
		kind = tokDot
	case '(':
		kind = tokLParen
	case ')':
		kind = tokRParen
	case '*':
		kind = tokStar
	case '=':
		kind = tokEq
	case '<':
		kind = tokLt
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == '>' {
			kind = tokNe
			l.pos++
		} else if l.pos+1 < len(l.src) && l.src[l.pos+1] == '=' {
			kind = tokLe
			l.pos++
		}
	case '>':
		kind = tokGt
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == '=' {
			kind = tokGe
			l.pos++
		}
	case '\'':
		l.pos++
		for l.pos < len(l.src) && l.src[l.pos] != '\'' {
			l.pos++
		}
		if l.pos >= len(l.src) {
			return token{}, fmt.Errorf("sqlparse: unterminated string at offset %d", start)
		}
		l.pos++
		return token{kind: tokString, text: l.src[start+1 : l.pos-1]}, nil
	case '-', '+':
		return l.lexNumber()
	default:
		if isDigit(c) {
			return l.lexNumber()
		}
		return token{}, fmt.Errorf("sqlparse: unexpected character %q at offset %d", c, l.pos)
	}
	l.pos++
	return token{kind: kind, text: l.src[start:l.pos]}, nil
}

func (l *lexer) lexNumber() (token, error) {
	start := l.pos
	if l.src[l.pos] == '-' || l.src[l.pos] == '+' {
		l.pos++
	}
	seenDigit := false
	for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
		l.pos++
		seenDigit = true
	}
	if l.pos < len(l.src) && l.src[l.pos] == '.' {
		l.pos++
		for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
			l.pos++
			seenDigit = true
		}
	}
	if !seenDigit {
		return token{}, fmt.Errorf("sqlparse: malformed number at offset %d", start)
	}
	if l.pos < len(l.src) && (l.src[l.pos] == 'e' || l.src[l.pos] == 'E') {
		save := l.pos
		l.pos++
		if l.pos < len(l.src) && (l.src[l.pos] == '-' || l.src[l.pos] == '+') {
			l.pos++
		}
		expDigits := false
		for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
			l.pos++
			expDigits = true
		}
		if !expDigits {
			l.pos = save // "e" belonged to something else
		}
	}
	text := l.src[start:l.pos]
	v, err := strconv.ParseFloat(text, 64)
	if err != nil {
		return token{}, fmt.Errorf("sqlparse: bad number %q at offset %d: %v", text, start, err)
	}
	return token{kind: tokNumber, text: text, num: v}, nil
}
