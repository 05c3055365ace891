package sqlparse

import (
	"reflect"
	"testing"

	"repro/internal/statutil"
	"repro/internal/workload"
)

// FuzzParseSQL fuzzes the parser with a corpus seeded from every workload
// template (the SQL the system actually generates) plus hand-picked edge
// cases. For any input the parser accepts, the parse→print→parse round
// trip must be stable: the printed form reparses to a structurally
// identical AST and printing is a fixed point. Inputs the parser rejects
// must be rejected without panicking.
func FuzzParseSQL(f *testing.F) {
	r := statutil.NewRNG(1, "fuzzseed")
	for _, tpl := range workload.TPCDSTemplates() {
		f.Add(tpl.Gen(r).Render())
	}
	for _, tpl := range workload.CustomerTemplates() {
		f.Add(tpl.Gen(r).Render())
	}
	f.Add("SELECT COUNT(*) FROM t")
	f.Add("SELECT a, SUM(b) FROM t WHERE a IN (1, 2) GROUP BY a ORDER BY a DESC LIMIT 5")
	f.Add("SELECT x.a FROM t x, u y WHERE x.a = y.b AND x.c BETWEEN 1 AND 2")
	f.Add("SELECT a FROM t WHERE a IN (SELECT b FROM u WHERE b > 0)")
	f.Add("SELECT")
	f.Add("SELECT ( FROM WHERE")
	f.Add("select a from t where a = 'v12'")
	f.Add("SELECT a FROM t WHERE a = -1.5e3")
	// Bytes outside ASCII: Latin-1 letters as bare bytes, a UTF-8 letter,
	// and the same inside a string literal (the only place they are legal).
	f.Add("SELECT \xaa FROM t")
	f.Add("SELECT a\xb5 FROM t")
	f.Add("SELECT caf\xc3\xa9 FROM t")
	f.Add("SELECT a FROM t WHERE a = 'caf\xc3\xa9'")

	f.Fuzz(func(t *testing.T, sql string) {
		q, err := Parse(sql) // must never panic
		if err != nil {
			return
		}
		printed := q.Render()
		q2, err := Parse(printed)
		if err != nil {
			t.Fatalf("printed form does not reparse: %v\ninput: %q\nprinted: %q", err, sql, printed)
		}
		if !reflect.DeepEqual(q, q2) {
			t.Fatalf("parse→print→parse changed the AST\ninput: %q\nprinted: %q", sql, printed)
		}
		if again := q2.Render(); again != printed {
			t.Fatalf("printing is not a fixed point\nfirst:  %q\nsecond: %q", printed, again)
		}
	})
}
