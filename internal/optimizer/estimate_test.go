package optimizer

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/catalog"
	"repro/internal/sqlgen"
)

var estSchema = catalog.TPCDS(1)

func newEstimator() *Estimator {
	e := NewEstimator(estSchema, 9)
	return &e
}

func TestEqSelectivityBounds(t *testing.T) {
	e := newEstimator()
	table := estSchema.Table("item")
	col := table.Column("i_category") // NDV 10, skewed
	for v := 0.0; v < 10; v++ {
		est, act := e.eqSelectivity(table, col, v)
		if est <= 0 || est > 1 || act <= 0 || act > 1 {
			t.Fatalf("selectivity out of range for value %v: est=%v act=%v", v, est, act)
		}
	}
	// Low-NDV columns have histogram-tracked estimates: est within a small
	// factor of act.
	est, act := e.eqSelectivity(table, col, 3)
	ratio := est / act
	if ratio < math.Exp(-0.5) || ratio > math.Exp(0.5) {
		t.Errorf("histogram estimate too far from actual: ratio %v", ratio)
	}
	// High-NDV keys fall back to the uniform assumption.
	ss := estSchema.Table("store_sales")
	cust := ss.Column("ss_customer_sk")
	estK, _ := e.eqSelectivity(ss, cust, 12345)
	if want := 1 / float64(cust.NDV); math.Abs(estK-want) > 1e-15 {
		t.Errorf("high-NDV estimate = %v, want uniform %v", estK, want)
	}
}

func TestRangeSelectivityProperties(t *testing.T) {
	e := newEstimator()
	table := estSchema.Table("store_sales")
	col := table.Column("ss_sold_date_sk")
	prop := func(a, b uint16) bool {
		lo := col.Min + float64(a%1800)
		hi := lo + float64(b%400)
		est, act := e.rangeSelectivity(table, col, lo, hi)
		if est < 0 || est > 1 || act < 0 || act > 1 {
			return false
		}
		// Wider ranges have no smaller actual selectivity, up to the
		// documented instance-keyed residual (±10% per endpoint draw).
		_, act2 := e.rangeSelectivity(table, col, lo, hi+100)
		return act2 >= act*0.8-1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
	// Degenerate range.
	if est, act := e.rangeSelectivity(table, col, 100, 50); est != 0 || act != 0 {
		t.Errorf("inverted range should be empty: %v %v", est, act)
	}
	// Full-domain range is (near-)everything on both models.
	est, act := e.rangeSelectivity(table, col, col.Min, col.Max)
	if est < 0.8 || act < 0.8 {
		t.Errorf("full range too selective: est=%v act=%v", est, act)
	}
}

func TestPredSelectivityKinds(t *testing.T) {
	e := newEstimator()
	table := estSchema.Table("store_sales")
	mk := func(op sqlgen.CmpOp, v float64) *sqlgen.Predicate {
		return &sqlgen.Predicate{Col: sqlgen.ColumnRef{Column: "ss_quantity"}, Op: op, Value: sqlgen.Literal{Value: v}}
	}
	// Ne complements Eq.
	estEq, actEq := e.predSelectivity(table, mk(sqlgen.OpEq, 5))
	estNe, actNe := e.predSelectivity(table, mk(sqlgen.OpNe, 5))
	if math.Abs(estEq+estNe-1) > 1e-12 || math.Abs(actEq+actNe-1) > 1e-12 {
		t.Errorf("Ne does not complement Eq: %v+%v, %v+%v", estEq, estNe, actEq, actNe)
	}
	// IN sums equality selectivities.
	in := sqlgen.Predicate{Col: sqlgen.ColumnRef{Column: "ss_quantity"}, Op: sqlgen.OpIn,
		Values: []sqlgen.Literal{{Value: 1}, {Value: 2}, {Value: 3}}}
	estIn, actIn := e.predSelectivity(table, &in)
	if estIn <= estEq || actIn <= 0 || actIn > 1 {
		t.Errorf("IN selectivity implausible: est=%v act=%v", estIn, actIn)
	}
	// Lt/Gt partition the domain approximately.
	estLt, _ := e.predSelectivity(table, mk(sqlgen.OpLt, 50))
	estGt, _ := e.predSelectivity(table, mk(sqlgen.OpGt, 50))
	if estLt <= 0 || estGt <= 0 || estLt+estGt > 2 {
		t.Errorf("one-sided selectivities implausible: %v %v", estLt, estGt)
	}
	// Unknown columns fall back to a guess, not a crash.
	unknown := sqlgen.Predicate{Col: sqlgen.ColumnRef{Column: "mystery"}, Op: sqlgen.OpEq, Value: sqlgen.Literal{Value: 1}}
	est, act := e.predSelectivity(table, &unknown)
	if est <= 0 || act <= 0 {
		t.Errorf("unknown column fallback broken: %v %v", est, act)
	}
}

func TestJoinCardsInequality(t *testing.T) {
	e := newEstimator()
	j := sqlgen.JoinPred{
		Left:  sqlgen.ColumnRef{Column: "ss_sold_date_sk"},
		Right: sqlgen.ColumnRef{Column: "sr_returned_date_sk"},
		Op:    sqlgen.OpLe,
	}
	left := Card{Est: 1e6, Act: 1e6}
	right := Card{Est: 1e5, Act: 1e5}
	out := e.JoinCards(&j, estSchema.Table("store_sales"), estSchema.Table("store_returns"), left, right)
	// The classic magic constant on the estimate side.
	if math.Abs(out.Est-1e11/3) > 1 {
		t.Errorf("inequality join estimate = %v, want product/3", out.Est)
	}
	// The actual selectivity is a keyed draw in (0.05, 0.6].
	sel := out.Act / 1e11
	if sel < 0.05-1e-9 || sel > 0.6+1e-9 {
		t.Errorf("actual inequality selectivity = %v", sel)
	}
}

func TestSemiJoinCardsBounds(t *testing.T) {
	e := newEstimator()
	outer := Card{Est: 1e6, Act: 1e6}
	// A huge subquery covers the whole domain: semi-join keeps everything.
	all := e.SemiJoinCards(estSchema.Table("store_sales"), "ss_item_sk", outer, Card{Est: 1e9, Act: 1e9})
	if all.Est > outer.Est+1 || all.Act > outer.Act*2 {
		t.Errorf("semi-join exceeded outer: %+v", all)
	}
	// A tiny subquery keeps almost nothing.
	few := e.SemiJoinCards(estSchema.Table("store_sales"), "ss_item_sk", outer, Card{Est: 3, Act: 3})
	if few.Est >= all.Est {
		t.Errorf("semi-join should shrink with subquery size: %v vs %v", few.Est, all.Est)
	}
}

func TestGroupNDVCaps(t *testing.T) {
	// The product of large NDVs is capped, not overflowed.
	ss := estSchema.Table("store_sales")
	cols := []*catalog.Column{ss.Column("ss_ticket_number"), ss.Column("ss_customer_sk"), ss.Column("ss_item_sk")}
	if ndv := GroupNDV(cols); ndv > 1e15 || math.IsInf(ndv, 0) {
		t.Errorf("NDV product not capped: %v", ndv)
	}
	// Unknown columns are skipped.
	if ndv := GroupNDV([]*catalog.Column{ss.Column("nope")}); ndv != 1 {
		t.Errorf("unknown binding ndv = %v", ndv)
	}
}

func TestClampAndFloorHelpers(t *testing.T) {
	if clampSel(-0.5) != 0 || clampSel(1.5) != 1 || clampSel(0.3) != 0.3 {
		t.Error("clampSel wrong")
	}
	if floorOne(0.2) != 1 || floorOne(7) != 7 {
		t.Error("floorOne wrong")
	}
}

// hash01Oracle is the estimator's keyed draw as it was first written: the
// "schema\x00seed" prefix and each key, behind a zero byte, formatted with
// fmt into a hash/fnv FNV-1a. keyHash streams the same bytes without fmt,
// hash.Hash or a []byte copy; this test is what keeps the two — and with
// them every plan, WAL replay and snapshot ever written — in agreement.
func hash01Oracle(schema string, seed int64, keys ...string) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s\x00%d", schema, seed)
	for _, k := range keys {
		h.Write([]byte{0})
		h.Write([]byte(k))
	}
	return float64(h.Sum64()>>11) / float64(1<<53)
}

func TestKeyHashMatchesFmtOracle(t *testing.T) {
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, 3, 0.1, 1.0 / 3, 2451000, 2451100.5, 1e15, 1e20, 1e21, -1e21,
		1e-4, 1e-5, 1e-7, 5e-324, math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64,
		1<<53 + 1, 1 << 62, 123456789.125, 99999.99999999999, 100000, 1e6, 12345678, 0.000123,
		math.Inf(1), math.Inf(-1), math.NaN(),
	}
	ints := []int{0, 1, 7, 8, 9, 10, 99, 100, -1, math.MaxInt32, math.MinInt64, math.MaxInt64}
	n := 0
	same := func(what string, got keyHash, want float64) {
		t.Helper()
		n++
		if g := got.unit(); g != want {
			t.Errorf("%s: streamed %v, fmt oracle %v", what, g, want)
		}
	}
	for _, schema := range []string{"tpcds_sf1", "", "s\x00x", "caf\u00e9"} {
		for _, seed := range []int64{0, -1, 3, math.MinInt64, math.MaxInt64} {
			e := NewEstimator(&catalog.Schema{Name: schema}, seed)
			oracle := func(keys ...string) float64 { return hash01Oracle(schema, seed, keys...) }
			same("prefix only", e.base, oracle())
			column := e.base.key("store_sales").key("ss_item_sk")
			for _, v := range floats {
				same(fmt.Sprintf("eq:%g", v), column.key("eq:").float(v), oracle("store_sales", "ss_item_sk", fmt.Sprintf("eq:%g", v)))
				same(fmt.Sprintf("histeq:%g", v), column.key("histeq:").float(v), oracle("store_sales", "ss_item_sk", fmt.Sprintf("histeq:%g", v)))
				same(fmt.Sprintf("groupby %g", v), e.base.key("groupby").key("").float(v), oracle("groupby", fmt.Sprintf("%g", v)))
				for _, w := range floats {
					same(fmt.Sprintf("fine:%g:%g", v, w), column.key("fine:").float(v).str(":").float(w),
						oracle("store_sales", "ss_item_sk", fmt.Sprintf("fine:%g:%g", v, w)))
				}
			}
			for _, i := range ints {
				for _, kind := range []string{"density", "rngskew", ""} {
					same(fmt.Sprintf("%s knot:%d", kind, i), column.key(kind).key("knot:").int(int64(i)),
						oracle("store_sales", "ss_item_sk", kind, fmt.Sprintf("knot:%d", i)))
				}
				same(fmt.Sprintf("region:%d", i), column.key("histrng").key("region:").int(int64(i)),
					oracle("store_sales", "ss_item_sk", "histrng", fmt.Sprintf("region:%d", i)))
			}
			pair := column.key("item").key("i_item_sk")
			same("join", pair.key("join"), oracle("store_sales", "ss_item_sk", "item", "i_item_sk", "join"))
			same("nejoin", pair.key("nejoin"), oracle("store_sales", "ss_item_sk", "item", "i_item_sk", "nejoin"))
			same("semijoin", column.key("semijoin"), oracle("store_sales", "ss_item_sk", "semijoin"))
			same("selfcmp", column.key("selfcmp"), oracle("store_sales", "ss_item_sk", "selfcmp"))
			same("empty keys", e.base.key("").key(""), oracle("", ""))
		}
	}
	t.Logf("%d keys compared", n)
}
