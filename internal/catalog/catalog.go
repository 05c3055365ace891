// Package catalog defines the database schemas used by the reproduction:
// a TPC-DS-shaped decision support schema (the paper trains and tests on
// TPC-DS scale factor 1) and a separate "customer" schema with different
// tables (the paper's Experiment 4 tests on a customer database the model
// never saw during training).
//
// The catalog stores only metadata — table cardinalities and per-column
// statistics (distinct-value counts, value ranges, skew). That is all the
// optimizer needs for planning and all the execution simulator needs to
// derive actual runtime behaviour.
package catalog

import (
	"fmt"
	"sort"
)

// ColType enumerates the (coarse) column types relevant to planning.
type ColType int

const (
	TypeInt ColType = iota
	TypeDecimal
	TypeDate
	TypeChar
)

func (t ColType) String() string {
	switch t {
	case TypeInt:
		return "int"
	case TypeDecimal:
		return "decimal"
	case TypeDate:
		return "date"
	case TypeChar:
		return "char"
	default:
		return fmt.Sprintf("coltype(%d)", int(t))
	}
}

// Column describes one column's statistics.
type Column struct {
	Name string
	Type ColType
	// NDV is the number of distinct values.
	NDV int64
	// Min and Max bound the value domain (dates are encoded as day
	// numbers, chars as dictionary codes).
	Min, Max float64
	// Skew is the Zipf exponent of the value frequency distribution;
	// 0 means uniform.
	Skew float64
	// Width is the average stored width in bytes.
	Width int
}

// ForeignKey records that (Table, Column) references (RefTable, RefColumn).
type ForeignKey struct {
	Table, Column       string
	RefTable, RefColumn string
}

// Table describes one table.
type Table struct {
	Name     string
	RowCount int64
	IsFact   bool
	Columns  []Column

	byName map[string]int
}

// Column returns the named column, or nil.
func (t *Table) Column(name string) *Column {
	if i, ok := t.byName[name]; ok {
		return &t.Columns[i]
	}
	return nil
}

// RowWidth returns the total average row width in bytes.
func (t *Table) RowWidth() int {
	w := 0
	for _, c := range t.Columns {
		w += c.Width
	}
	if w == 0 {
		w = 64
	}
	return w
}

// Schema is a named collection of tables with foreign-key metadata.
type Schema struct {
	Name   string
	Tables map[string]*Table
	FKs    []ForeignKey

	fkIndex map[string]ForeignKey // "table.column" -> FK
}

// NewSchema builds a schema from tables and foreign keys, validating that
// every referenced table and column exists.
func NewSchema(name string, tables []*Table, fks []ForeignKey) (*Schema, error) {
	s := &Schema{Name: name, Tables: make(map[string]*Table, len(tables)), FKs: fks, fkIndex: map[string]ForeignKey{}}
	for _, t := range tables {
		if _, dup := s.Tables[t.Name]; dup {
			return nil, fmt.Errorf("catalog: duplicate table %q", t.Name)
		}
		t.byName = make(map[string]int, len(t.Columns))
		for i, c := range t.Columns {
			if _, dup := t.byName[c.Name]; dup {
				return nil, fmt.Errorf("catalog: duplicate column %s.%s", t.Name, c.Name)
			}
			t.byName[c.Name] = i
		}
		s.Tables[t.Name] = t
	}
	for _, fk := range fks {
		ft, ok := s.Tables[fk.Table]
		if !ok {
			return nil, fmt.Errorf("catalog: FK from unknown table %q", fk.Table)
		}
		if ft.Column(fk.Column) == nil {
			return nil, fmt.Errorf("catalog: FK from unknown column %s.%s", fk.Table, fk.Column)
		}
		rt, ok := s.Tables[fk.RefTable]
		if !ok {
			return nil, fmt.Errorf("catalog: FK to unknown table %q", fk.RefTable)
		}
		if rt.Column(fk.RefColumn) == nil {
			return nil, fmt.Errorf("catalog: FK to unknown column %s.%s", fk.RefTable, fk.RefColumn)
		}
		s.fkIndex[fk.Table+"."+fk.Column] = fk
	}
	return s, nil
}

// MustNewSchema is NewSchema that panics on error; intended for the static
// built-in schemas, which are validated by tests.
func MustNewSchema(name string, tables []*Table, fks []ForeignKey) *Schema {
	s, err := NewSchema(name, tables, fks)
	if err != nil {
		panic(err)
	}
	return s
}

// Table returns the named table, or nil.
func (s *Schema) Table(name string) *Table {
	return s.Tables[name]
}

// ForeignKeyFor returns the FK departing from table.column, if any.
func (s *Schema) ForeignKeyFor(table, column string) (ForeignKey, bool) {
	fk, ok := s.fkIndex[table+"."+column]
	return fk, ok
}

// TableNames returns the schema's table names sorted alphabetically.
func (s *Schema) TableNames() []string {
	names := make([]string, 0, len(s.Tables))
	for n := range s.Tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
