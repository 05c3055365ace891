package catalog

import "testing"

func TestTPCDSValidates(t *testing.T) {
	// MustNewSchema would panic on dangling FKs or duplicate names.
	s := TPCDS(1)
	if s.Name != "tpcds" {
		t.Errorf("schema name = %q", s.Name)
	}
	if len(s.Tables) != 24 {
		t.Errorf("table count = %d, want 24", len(s.Tables))
	}
	ss := s.Table("store_sales")
	if ss == nil {
		t.Fatal("store_sales missing")
	}
	if !ss.IsFact {
		t.Error("store_sales should be a fact table")
	}
	if ss.RowCount != 2880404 {
		t.Errorf("store_sales rows = %d, want 2880404", ss.RowCount)
	}
	if c := ss.Column("ss_quantity"); c == nil || c.Min != 1 || c.Max != 100 {
		t.Errorf("ss_quantity stats wrong: %+v", c)
	}
	if ss.Column("nope") != nil {
		t.Error("unknown column should be nil")
	}
	if w := ss.RowWidth(); w <= 0 {
		t.Errorf("row width = %d", w)
	}
}

func TestTPCDSScaleFactor(t *testing.T) {
	s1 := TPCDS(1)
	s10 := TPCDS(10)
	r1 := s1.Table("store_sales").RowCount
	r10 := s10.Table("store_sales").RowCount
	if r10 != 10*r1 {
		t.Errorf("fact tables must scale linearly: %d vs %d", r1, r10)
	}
	c1 := s1.Table("customer").RowCount
	c10 := s10.Table("customer").RowCount
	if c10 <= c1 || c10 >= 10*c1 {
		t.Errorf("customer dim should scale sublinearly: %d vs %d", c1, c10)
	}
	if TPCDS(1).Table("store").RowCount != TPCDS(100).Table("store").RowCount {
		t.Error("small dims should not scale")
	}
	// Nonpositive scale factor defaults to 1.
	if TPCDS(0).Table("store_sales").RowCount != r1 {
		t.Error("sf=0 should default to sf=1")
	}
}

func TestForeignKeyLookup(t *testing.T) {
	s := TPCDS(1)
	fk, ok := s.ForeignKeyFor("store_sales", "ss_item_sk")
	if !ok || fk.RefTable != "item" || fk.RefColumn != "i_item_sk" {
		t.Errorf("FK lookup wrong: %+v ok=%v", fk, ok)
	}
	if _, ok := s.ForeignKeyFor("store_sales", "ss_quantity"); ok {
		t.Error("non-FK column should not resolve")
	}
	if _, ok := s.ForeignKeyFor("item", "i_item_sk"); ok {
		t.Error("the referenced key should not resolve as a foreign key")
	}
}

func TestCustomerSchemaValidates(t *testing.T) {
	s := CustomerSchema()
	if len(s.Tables) != 8 {
		t.Errorf("customer schema table count = %d, want 8", len(s.Tables))
	}
	if s.Table("call_records") == nil || !s.Table("call_records").IsFact {
		t.Error("call_records must exist and be a fact table")
	}
	// The two schemas must not share any table names (Experiment 4 requires
	// genuinely different schemas).
	ds := TPCDS(1)
	for name := range s.Tables {
		if ds.Table(name) != nil {
			t.Errorf("table %q appears in both schemas", name)
		}
	}
}

func TestSchemaHelpers(t *testing.T) {
	s := CustomerSchema()
	names := s.TableNames()
	if len(names) != 8 {
		t.Fatalf("names = %v", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i] < names[i-1] {
			t.Errorf("names not sorted: %v", names)
		}
	}
	for _, n := range names {
		if s.Table(n).RowCount <= 0 {
			t.Errorf("table %s has %d rows, want > 0", n, s.Table(n).RowCount)
		}
	}
}

func TestNewSchemaRejectsBadFK(t *testing.T) {
	tbl := &Table{Name: "t", RowCount: 1, Columns: []Column{{Name: "a"}}}
	if _, err := NewSchema("x", []*Table{tbl}, []ForeignKey{{"t", "a", "missing", "b"}}); err == nil {
		t.Error("expected error for FK to unknown table")
	}
	if _, err := NewSchema("x", []*Table{tbl}, []ForeignKey{{"t", "zzz", "t", "a"}}); err == nil {
		t.Error("expected error for FK from unknown column")
	}
	dup := &Table{Name: "t", RowCount: 1, Columns: []Column{{Name: "a"}, {Name: "a"}}}
	if _, err := NewSchema("x", []*Table{dup}, nil); err == nil {
		t.Error("expected error for duplicate column")
	}
	if _, err := NewSchema("x", []*Table{tbl, {Name: "t"}}, nil); err == nil {
		t.Error("expected error for duplicate table")
	}
}

func TestColTypeString(t *testing.T) {
	for ct, want := range map[ColType]string{TypeInt: "int", TypeDecimal: "decimal", TypeDate: "date", TypeChar: "char"} {
		if ct.String() != want {
			t.Errorf("%d.String() = %q, want %q", ct, ct.String(), want)
		}
	}
	if ColType(99).String() == "" {
		t.Error("unknown type should still render")
	}
}
