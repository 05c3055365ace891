package optimizer

import (
	"math"
	"strconv"

	"repro/internal/catalog"
	"repro/internal/sqlgen"
)

// Estimator computes cardinalities for plan construction. Every quantity is
// produced twice:
//
//   - the optimizer estimate, under the textbook assumptions real
//     optimizers make — uniform value distributions, independent
//     predicates, magic selectivity constants for inequality joins, and
//     statistics that are stale with respect to recently loaded data;
//
//   - the true value, from the full statistical model — Zipf-skewed value
//     frequencies, correlated predicates, and per-value "data surprises"
//     drawn deterministically from the data-realization seed, so the same
//     query always sees the same data and similar queries see similar
//     data.
//
// The gap between the two is exactly the paper's "sources of uncertainty,
// such as skewed data distributions and erroneous cardinality estimates".
type Estimator struct {
	// base is the key hash after the "schema\x00seed" prefix every draw
	// starts with, computed once. The seed identifies the data realization;
	// surprises are deterministic functions of (seed, schema, table,
	// column, value).
	base keyHash
}

// NewEstimator returns the estimator for the data realization seed of
// schema.
func NewEstimator(schema *catalog.Schema, seed int64) Estimator {
	return Estimator{base: newKeyHash().str(schema.Name).key("").int(seed)}
}

// Card is an (estimated, actual) cardinality pair.
type Card struct {
	Est, Act float64
}

// staleFraction is how much of the top of a date column's domain the
// optimizer's statistics have not seen (data loaded after the last stats
// refresh).
const staleFraction = 0.12

// corrExponentBase controls how strongly multiple predicates on one table
// correlate: the product of per-predicate selectivities is raised to
// corrExponentBase^(k-1) for k predicates, making the combined predicate
// less selective than independence predicts.
const corrExponentBase = 0.82

// keyHash is a running 64-bit FNV-1a state over the key of one
// deterministic draw: the estimator's prefix, then each key part behind a
// zero byte. A draw used to format its key with fmt and push it through a
// hash.Hash; streaming the same bytes through this value yields the same
// digest bit for bit (the fmt version survives in the tests as the oracle)
// and allocates nothing.
type keyHash uint64

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func newKeyHash() keyHash { return fnvOffset64 }

// str hashes the bytes of s onto the current key part.
func (h keyHash) str(s string) keyHash {
	for i := 0; i < len(s); i++ {
		h = (h ^ keyHash(s[i])) * fnvPrime64
	}
	return h
}

// key starts a new key part with s.
func (h keyHash) key(s string) keyHash { return (h * fnvPrime64).str(s) }

func (h keyHash) bytes(b []byte) keyHash {
	for _, c := range b {
		h = (h ^ keyHash(c)) * fnvPrime64
	}
	return h
}

// int hashes n's decimal digits, as %d prints them.
func (h keyHash) int(n int64) keyHash {
	var buf [20]byte
	return h.bytes(strconv.AppendInt(buf[:0], n, 10))
}

// float hashes v's shortest round-trip digits, as %g prints them.
func (h keyHash) float(v float64) keyHash {
	var buf [24]byte
	return h.bytes(strconv.AppendFloat(buf[:0], v, 'g', -1, 64))
}

// unit maps the digest to a uniform value in [0, 1).
func (h keyHash) unit() float64 { return float64(uint64(h)>>11) / float64(1<<53) }

// surprise returns a deterministic multiplicative factor exp(s·(2u−1)),
// i.e. in [e^−s, e^s], for the draw keyed by h.
func surprise(s float64, h keyHash) float64 {
	if s <= 0 {
		return 1
	}
	return math.Exp(s * (2*h.unit() - 1))
}

// hotness returns the true frequency multiplier of one specific value of a
// skewed column relative to the uniform frequency: a Pareto draw keyed by
// the value, capped so the implied selectivity stays below one.
func hotness(col *catalog.Column, key keyHash) float64 {
	if col.Skew <= 0 {
		return 1
	}
	u := key.unit()
	h := math.Pow(1/(1-u+1e-12), col.Skew)
	cap := float64(col.NDV) / 2
	if cap < 1 {
		cap = 1
	}
	if h > cap {
		h = cap
	}
	return h
}

// histogramNDV is the largest distinct-value count for which the optimizer
// maintains per-value frequency histograms. Below it, equality estimates
// track the true (skewed) frequencies within a small error; above it, the
// optimizer falls back to the uniform 1/NDV assumption and misses hot
// values entirely.
const histogramNDV = 4096

// eqSelectivity returns the (est, act) selectivity of col = value.
func (e *Estimator) eqSelectivity(table *catalog.Table, col *catalog.Column, value float64) (float64, float64) {
	ndv := float64(col.NDV)
	if ndv < 1 {
		ndv = 1
	}
	uniform := 1 / ndv
	column := e.base.key(table.Name).key(col.Name)
	act := clampSel(uniform * hotness(col, column.key("eq:").float(value)))
	est := uniform
	if col.NDV <= histogramNDV {
		est = clampSel(act * surprise(0.45, column.key("histeq:").float(value)))
	}
	return est, act
}

// rangeSelectivity returns the (est, act) selectivity of lo <= col <= hi.
func (e *Estimator) rangeSelectivity(table *catalog.Table, col *catalog.Column, lo, hi float64) (float64, float64) {
	if hi < lo {
		return 0, 0
	}
	domLo, domHi := col.Min, col.Max
	span := domHi - domLo
	if span <= 0 {
		span = 1
	}
	overlap := func(min, max float64) float64 {
		l, h := math.Max(lo, min), math.Min(hi, max)
		if h <= l {
			return 0
		}
		return (h - l) / (max - min)
	}
	uniformFrac := overlap(domLo, domHi)
	// Value density varies across the domain (seasonal spikes in dates,
	// mass concentration in skewed columns), so the true fraction in a
	// range is a position-dependent power of the uniform fraction:
	// act = frac^γ(pos). The exponent varies SMOOTHLY with the range's
	// position — knot values are drawn per (column, knot index) and
	// linearly interpolated — which is what preserves locality: two
	// queries with nearby ranges get nearly identical γ and therefore the
	// same estimate-to-actual mapping (so nearest-neighbor prediction
	// keeps working), while across the whole workload the mapping bends
	// in ways no single linear model fits (so the paper's regression
	// baseline collapses).
	const knots = 8
	column := e.base.key(table.Name).key(col.Name)
	pos := ((lo+hi)/2 - domLo) / span
	if pos < 0 {
		pos = 0
	}
	if pos > 1 {
		pos = 1
	}
	lerpKnots := func(kind string) float64 {
		x := pos * knots
		i := int(x)
		if i >= knots {
			i = knots - 1
		}
		t := x - float64(i)
		knot := column.key(kind).key("knot:")
		a, b := knot.int(int64(i)).unit(), knot.int(int64(i+1)).unit()
		return a*(1-t) + b*t
	}
	gamma := 0.6 + 0.4*lerpKnots("density")
	act := uniformFrac
	if act > 0 && act < 1 {
		act = math.Pow(act, gamma)
	}
	// Skewed columns add a further smoothly varying deviation.
	act *= math.Exp(0.5 * col.Skew * (2*lerpKnots("rngskew") - 1))
	// A small residual keyed by the exact constants: fine-grained density
	// structure below histogram resolution. This is the component no
	// feature vector can capture, bounding every model's accuracy. Known
	// artifact: because the residual is redrawn when the endpoints move,
	// the synthetic "actual" is only approximately monotone under range
	// widening (within the ±10% residual bound), unlike physical data.
	act *= surprise(0.10, column.key("fine:").float(lo).str(":").float(hi))
	// The optimizer estimates from the uniform assumption. Its statistics
	// are additionally stale for date columns: it has not seen the top
	// staleFraction of the domain, so ranges touching recent data are
	// underestimated.
	var est float64
	if col.Type == catalog.TypeDate {
		staleHi := domHi - staleFraction*(domHi-domLo)
		est = overlap(domLo, staleHi)
	} else {
		// Equi-depth histograms blur the uniform estimate by their
		// resolution error.
		est = uniformFrac * surprise(0.3, column.key("histrng").key("region:").int(int64(pos*float64(knots))))
	}
	return clampSel(est), clampSel(act)
}

// cmpSelectivity returns the (est, act) selectivity of col op value for
// single-sided comparisons.
func (e *Estimator) cmpSelectivity(table *catalog.Table, col *catalog.Column, op sqlgen.CmpOp, value float64) (float64, float64) {
	switch op {
	case sqlgen.OpEq:
		return e.eqSelectivity(table, col, value)
	case sqlgen.OpNe:
		est, act := e.eqSelectivity(table, col, value)
		return clampSel(1 - est), clampSel(1 - act)
	case sqlgen.OpLt, sqlgen.OpLe:
		return e.rangeSelectivity(table, col, col.Min, value)
	case sqlgen.OpGt, sqlgen.OpGe:
		return e.rangeSelectivity(table, col, value, col.Max)
	default:
		return 1, 1
	}
}

// predSelectivity returns the (est, act) selectivity of a single predicate.
// IN-subquery and EXISTS predicates are handled by the planner (as
// semi-joins and subplan filters) and must not be passed here.
func (e *Estimator) predSelectivity(table *catalog.Table, p *sqlgen.Predicate) (float64, float64) {
	col := table.Column(p.Col.Column)
	if col == nil {
		// Unknown column: both models fall back to a guess.
		return 0.1, 0.1
	}
	switch p.Op {
	case sqlgen.OpBetween:
		return e.rangeSelectivity(table, col, p.Lo.Value, p.Hi.Value)
	case sqlgen.OpIn:
		est, act := 0.0, 0.0
		for _, v := range p.Values {
			e1, a1 := e.eqSelectivity(table, col, v.Value)
			est += e1
			act += a1
		}
		return clampSel(est), clampSel(act)
	default:
		return e.cmpSelectivity(table, col, p.Op, p.Value.Value)
	}
}

// scanSel is the combined selectivity of the predicates pushed down to one
// scan, multiplied up in the order the predicates were written. The
// estimated output assumes independent predicates; the actual output models
// positive correlation between predicates on the same table.
type scanSel struct {
	est, act float64
	k        int
}

var noPredicates = scanSel{est: 1, act: 1}

func (s *scanSel) and(est, act float64) {
	s.est *= est
	s.act *= act
	s.k++
}

// scanCards returns the input (rows scanned) and output (rows surviving the
// pushed-down predicates) cardinalities of a scan of table.
func (s scanSel) scanCards(table *catalog.Table) (in, out Card) {
	rows := float64(table.RowCount)
	if s.k > 1 {
		s.act = math.Pow(s.act, math.Pow(corrExponentBase, float64(s.k-1)))
	}
	return Card{Est: rows, Act: rows},
		Card{Est: floorOne(rows * clampSel(s.est)), Act: floorOne(rows * clampSel(s.act))}
}

// JoinCards returns the output cardinality of a join between a column of
// lt and a column of rt given the child output cardinalities. For equijoins
// both models use |L|·|R| / max(ndvL, ndvR) with the base-column distinct
// counts, which reduces to foreign-key semantics when one side is a key;
// the actual value additionally carries a skew surprise. For inequality
// joins the optimizer uses the classic 1/3 magic constant while the true
// selectivity is a keyed draw.
func (e *Estimator) JoinCards(j *sqlgen.JoinPred, lt, rt *catalog.Table, left, right Card) Card {
	lcol, rcol := lt.Column(j.Left.Column), rt.Column(j.Right.Column)
	pair := e.base.key(lt.Name).key(j.Left.Column).key(rt.Name).key(j.Right.Column)
	if j.Op == sqlgen.OpEq {
		ndv := 1.0
		skew := 0.0
		if lcol != nil && float64(lcol.NDV) > ndv {
			ndv = float64(lcol.NDV)
		}
		if rcol != nil && float64(rcol.NDV) > ndv {
			ndv = float64(rcol.NDV)
		}
		if lcol != nil {
			skew += lcol.Skew
		}
		if rcol != nil {
			skew += rcol.Skew
		}
		sel := 1 / ndv
		est := left.Est * right.Est * sel
		sur := surprise(0.6*skew, pair.key("join"))
		act := left.Act * right.Act * sel * sur
		return Card{Est: floorOne(est), Act: floorOne(act)}
	}
	// Inequality join.
	const magic = 1.0 / 3.0
	u := pair.key("nejoin").unit()
	actSel := 0.05 + 0.55*math.Pow(u, 1.5)
	return Card{
		Est: floorOne(left.Est * right.Est * magic),
		Act: floorOne(left.Act * right.Act * actSel),
	}
}

// SelfCompareCards filters a relation by a comparison between two of its
// own columns: the optimizer guesses a third; the true fraction is a keyed
// draw around it.
func (e *Estimator) SelfCompareCards(table *catalog.Table, column string, in Card) Card {
	sur := surprise(0.5, e.base.key(table.Name).key(column).key("selfcmp"))
	return Card{Est: floorOne(in.Est / 3), Act: floorOne(in.Act * sur / 3)}
}

// SemiJoinCards returns the output cardinality of outer ⋉ sub for an
// IN-subquery predicate on outerCol: the fraction of outer rows whose value
// appears in the subquery result.
func (e *Estimator) SemiJoinCards(outerTable *catalog.Table, outerCol string, outer, sub Card) Card {
	ndv := 1.0
	if c := outerTable.Column(outerCol); c != nil && c.NDV > 0 {
		ndv = float64(c.NDV)
	}
	// Distinct values in the subquery output shrink sublinearly with its
	// cardinality (duplicates).
	frac := func(rows float64) float64 {
		d := math.Pow(rows, 0.85)
		return clampSel(d / ndv)
	}
	sur := surprise(0.4, e.base.key(outerTable.Name).key(outerCol).key("semijoin"))
	return Card{
		Est: floorOne(outer.Est * frac(sub.Est)),
		Act: floorOne(outer.Act * clampSel(frac(sub.Act)*sur)),
	}
}

// GroupCards returns the number of groups produced when grouping rowsIn
// rows by the given columns of the given tables, using the standard
// distinct-value estimate D(n, d) = d·(1 − (1 − 1/d)^n).
func (e *Estimator) GroupCards(groupNDV float64, in Card) Card {
	if groupNDV < 1 {
		groupNDV = 1
	}
	distinct := func(n float64) float64 {
		if n <= 0 {
			return 1
		}
		d := groupNDV * (1 - math.Pow(1-1/groupNDV, n))
		if d > n {
			d = n
		}
		return floorOne(d)
	}
	sur := surprise(0.3, e.base.key("groupby").key("").float(groupNDV))
	return Card{Est: distinct(in.Est), Act: floorOne(distinct(in.Act) * sur)}
}

// GroupNDV returns the product of distinct counts of the grouping columns,
// capped to avoid overflow. Columns the catalog does not know are nil and
// count for nothing.
func GroupNDV(cols []*catalog.Column) float64 {
	ndv := 1.0
	for _, c := range cols {
		if c == nil || c.NDV <= 0 {
			continue
		}
		ndv *= float64(c.NDV)
		if ndv > 1e15 {
			return 1e15
		}
	}
	return ndv
}

func clampSel(s float64) float64 {
	if s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

func floorOne(v float64) float64 {
	if v < 1 {
		return 1
	}
	return v
}
