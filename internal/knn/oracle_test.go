package knn

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/linalg"
	"repro/internal/statutil"
)

// The oracle suite proves the index EXACT: for every supported
// metric, point-cloud shape and k, Index.Nearest must return bit-identical
// (distance, index) neighbor sets to the flat scan — same values, same
// total order, NaN-last. It runs under -race in CI with {1, 2, 7, NumCPU}
// goroutines sharing one index. The oracle is the package-level Nearest:
// one linalg.Dist per candidate and a full sort, none of the scorer's
// grouped passes, early abandoning or heap.

// cloud generates a point cloud of a given pathology. Every generator is
// deterministic in (seed, n, dim).
type cloud struct {
	name string
	gen  func(seed int64, n, dim int) *linalg.Matrix
}

func clouds() []cloud {
	return []cloud{
		{"uniform", func(seed int64, n, dim int) *linalg.Matrix {
			rng := statutil.NewRNG(seed, "oracle-uniform")
			m := linalg.NewMatrix(n, dim)
			for i := range m.Data {
				m.Data[i] = rng.NormFloat64()
			}
			return m
		}},
		{"duplicates", func(seed int64, n, dim int) *linalg.Matrix {
			// Only a handful of distinct rows: the template-workload shape,
			// where the (distance, index) tie-break carries the ordering.
			rng := statutil.NewRNG(seed, "oracle-dup")
			distinct := 3
			base := linalg.NewMatrix(distinct, dim)
			for i := range base.Data {
				base.Data[i] = rng.NormFloat64()
			}
			m := linalg.NewMatrix(n, dim)
			for i := 0; i < n; i++ {
				copy(m.Row(i), base.Row(rng.Intn(distinct)))
			}
			return m
		}},
		{"colinear", func(seed int64, n, dim int) *linalg.Matrix {
			// Degenerate cluster: every point on one line through the origin,
			// so every coordinate orders the points the same way.
			rng := statutil.NewRNG(seed, "oracle-colinear")
			dir := make([]float64, dim)
			for j := range dir {
				dir[j] = rng.NormFloat64()
			}
			m := linalg.NewMatrix(n, dim)
			for i := 0; i < n; i++ {
				t := rng.NormFloat64()
				for j := 0; j < dim; j++ {
					m.Row(i)[j] = t * dir[j]
				}
			}
			return m
		}},
		{"clustered", func(seed int64, n, dim int) *linalg.Matrix {
			rng := statutil.NewRNG(seed, "oracle-cluster")
			centers := linalg.NewMatrix(4, dim)
			for i := range centers.Data {
				centers.Data[i] = 10 * rng.NormFloat64()
			}
			m := linalg.NewMatrix(n, dim)
			for i := 0; i < n; i++ {
				c := centers.Row(rng.Intn(4))
				for j := 0; j < dim; j++ {
					m.Row(i)[j] = c[j] + 0.1*rng.NormFloat64()
				}
			}
			return m
		}},
		{"poisoned", func(seed int64, n, dim int) *linalg.Matrix {
			// Degenerate rows among ordinary ones: NaN coordinates, ±Inf,
			// huge magnitudes whose squares overflow, exact zeros (zero-norm
			// under Cosine). The index must rank them exactly like the flat
			// scan (NaN-last).
			rng := statutil.NewRNG(seed, "oracle-poison")
			m := linalg.NewMatrix(n, dim)
			for i := range m.Data {
				m.Data[i] = rng.NormFloat64()
			}
			for i := 0; i < n; i++ {
				switch i % 7 {
				case 1:
					m.Row(i)[rng.Intn(dim)] = math.NaN()
				case 3:
					m.Row(i)[rng.Intn(dim)] = math.Inf(1 - 2*(i%2))
				case 4:
					m.Row(i)[rng.Intn(dim)] = 1e200
				case 5:
					for j := 0; j < dim; j++ {
						m.Row(i)[j] = 0
					}
				}
			}
			return m
		}},
		{"magnitudes", func(seed int64, n, dim int) *linalg.Matrix {
			// Rows at the edges of what the abandon limit tolerates:
			// coordinates whose squares are subnormal or flush to zero,
			// coordinates that are subnormal themselves, and 1e150, next to
			// ordinary rows. The kth-best distance then ranges from 0 through
			// subnormal to ~1e151.
			rng := statutil.NewRNG(seed, "oracle-magnitudes")
			m := linalg.NewMatrix(n, dim)
			for i := 0; i < n; i++ {
				scale := []float64{1, 1e-160, 1e-320, 1e150}[rng.Intn(4)]
				for j := 0; j < dim; j++ {
					m.Row(i)[j] = scale * rng.NormFloat64()
				}
			}
			return m
		}},
	}
}

// oracleQueries builds query rows exercising every search path: ordinary,
// coincident with training points, far away, zero, and non-finite.
func oracleQueries(seed int64, points *linalg.Matrix) *linalg.Matrix {
	rng := statutil.NewRNG(seed, "oracle-query")
	dim := points.Cols
	qs := linalg.NewMatrix(8, dim)
	for j := 0; j < dim; j++ {
		qs.Row(0)[j] = rng.NormFloat64()           // ordinary
		qs.Row(2)[j] = 100 + 10*rng.NormFloat64()  // far outside the cloud
		qs.Row(3)[j] = 0                           // zero (zero norm under Cosine)
		qs.Row(4)[j] = rng.NormFloat64()           // NaN-poisoned below
		qs.Row(5)[j] = 1e-30 * rng.NormFloat64()   // tiny magnitudes
		qs.Row(6)[j] = rng.NormFloat64() * 1e160   // squares overflow
		qs.Row(7)[j] = math.Abs(rng.NormFloat64()) // positive orthant
	}
	copy(qs.Row(1), points.Row(points.Rows/2)) // exact duplicate of a point
	qs.Row(4)[dim-1] = math.NaN()
	return qs
}

// mustEqualNeighbors asserts bit-identical neighbor sets: same length, and
// per position the same index and the same distance bits (NaN == NaN).
func mustEqualNeighbors(t *testing.T, ctx string, got, want []Neighbor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d neighbors, oracle has %d", ctx, len(got), len(want))
	}
	for i := range got {
		if got[i].Index != want[i].Index ||
			math.Float64bits(got[i].Distance) != math.Float64bits(want[i].Distance) {
			t.Fatalf("%s: neighbor %d = {%d %v}, oracle {%d %v}",
				ctx, i, got[i].Index, got[i].Distance, want[i].Index, want[i].Distance)
		}
	}
}

// concurrentNearest has g goroutines search one shared index and its point
// set at once, each asking every query (from its own starting query) of both
// ix.Nearest and the flat Nearest, then checks every answer bit for bit
// against want, the serial flat scan's answer per query.
func concurrentNearest(t *testing.T, ctx string, ix *Index, points, queries *linalg.Matrix, k, g int, want [][]Neighbor) {
	t.Helper()
	type answer struct {
		indexed, flat []Neighbor
		err           error
	}
	got := make([][]answer, g)
	var wg sync.WaitGroup
	for w := range got {
		got[w] = make([]answer, queries.Rows)
		wg.Add(1)
		go func(out []answer, start int) {
			defer wg.Done()
			for i := range out {
				qi := (start + i) % len(out)
				a := &out[qi]
				if a.indexed, a.err = ix.Nearest(queries.Row(qi), k); a.err == nil {
					a.flat, a.err = Nearest(points, queries.Row(qi), k, ix.metric)
				}
			}
		}(got[w], w)
	}
	wg.Wait()
	for w := range got {
		for qi, a := range got[w] {
			if a.err != nil {
				t.Fatalf("%s goroutine=%d query=%d: %v", ctx, w, qi, a.err)
			}
			mustEqualNeighbors(t, fmt.Sprintf("%s goroutine=%d query=%d index", ctx, w, qi), a.indexed, want[qi])
			mustEqualNeighbors(t, fmt.Sprintf("%s goroutine=%d query=%d flat", ctx, w, qi), a.flat, want[qi])
		}
	}
}

// TestIndexOracle is the headline exactness proof: randomized point clouds
// across sizes, dimensions, pathologies, and both metrics; index results
// must be bit-identical to the flat scan for k ∈ {1, 3, 7, N, N+5}, also
// when several goroutines share the index. Sizes 5, 63 and 257 end on a
// short block, whose last group repeats a row.
func TestIndexOracle(t *testing.T) {
	// 17 and 40 cross the scorer's 16-term abandon stride once and twice.
	dims := []int{1, 2, 3, 8, 15, 17, 40}
	sizes := []int{1, 5, 63, 64, 257, 600}

	seed := int64(100)
	for _, cl := range clouds() {
		for _, metric := range []Distance{Euclidean, Cosine} {
			for _, n := range sizes {
				for _, dim := range dims {
					if n > 100 && dim > 8 && !(n == 257 && dim == 40) {
						continue // keep the grid affordable; big×wide is covered at 8 and once at 40
					}
					seed++
					points := cl.gen(seed, n, dim)
					queries := oracleQueries(seed, points)
					ix := NewIndex(points, metric)
					for _, k := range []int{1, 3, 7, n, n + 5} {
						for qi := 0; qi < queries.Rows; qi++ {
							q := queries.Row(qi)
							want, err := Nearest(points, q, k, metric)
							if err != nil {
								t.Fatal(err)
							}
							got, err := ix.Nearest(q, k)
							if err != nil {
								t.Fatal(err)
							}
							ctx := fmt.Sprintf("cloud=%s metric=%v n=%d dim=%d k=%d query=%d", cl.name, metric, n, dim, k, qi)
							mustEqualNeighbors(t, ctx, got, want)
						}
					}
					// Shared index at every worker count, k = 3.
					want := make([][]Neighbor, queries.Rows)
					for qi := range want {
						nbs, err := Nearest(points, queries.Row(qi), 3, metric)
						if err != nil {
							t.Fatal(err)
						}
						want[qi] = nbs
					}
					for _, w := range workerCounts() {
						ctx := fmt.Sprintf("cloud=%s metric=%v n=%d dim=%d workers=%d", cl.name, metric, n, dim, w)
						concurrentNearest(t, ctx, ix, points, queries, 3, w, want)
					}
				}
			}
		}
	}
}

// TestIndexOracleDefaultConfig exercises the index as core builds it — one
// configuration, NewIndex — at 12 dimensions and sizes from one point through
// one short block, exactly one block and one past it, to many blocks.
func TestIndexOracleDefaultConfig(t *testing.T) {
	for _, metric := range []Distance{Euclidean, Cosine} {
		for _, n := range []int{1, 15, 16, 17, 1000} {
			points := clouds()[0].gen(int64(7000+n), n, 12)
			ix := NewIndex(points, metric)
			queries := oracleQueries(int64(8000+n), points)
			for qi := 0; qi < queries.Rows; qi++ {
				q := queries.Row(qi)
				want, err := Nearest(points, q, 3, metric)
				if err != nil {
					t.Fatal(err)
				}
				got, err := ix.Nearest(q, 3)
				if err != nil {
					t.Fatal(err)
				}
				mustEqualNeighbors(t, fmt.Sprintf("metric=%v n=%d query=%d", metric, n, qi), got, want)
			}
		}
	}
}

// TestIndexOracleWeightings closes the loop to predictions: identical
// neighbor sets must combine into bit-identical prediction vectors under
// every weighting scheme.
func TestIndexOracleWeightings(t *testing.T) {
	points := clouds()[1].gen(42, 200, 6) // duplicates: order-sensitive under RankWeight
	values := clouds()[0].gen(43, 200, 4)
	queries := oracleQueries(44, points)
	for _, metric := range []Distance{Euclidean, Cosine} {
		ix := NewIndex(points, metric)
		for qi := 0; qi < queries.Rows; qi++ {
			q := queries.Row(qi)
			want, err := Nearest(points, q, 5, metric)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ix.Nearest(q, 5)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []Weighting{EqualWeight, RankWeight, DistanceWeight} {
				vw := Combine(values, want, w)
				vg := Combine(values, got, w)
				for j := range vw {
					if math.Float64bits(vw[j]) != math.Float64bits(vg[j]) {
						t.Fatalf("metric=%v weighting=%v query=%d: combined[%d] = %v, oracle %v", metric, w, qi, j, vg[j], vw[j])
					}
				}
			}
		}
	}
}

// TestIndexErrorParity: the index must reject bad inputs with the same
// sentinel errors as the flat scan.
func TestIndexErrorParity(t *testing.T) {
	points := clouds()[0].gen(9, 80, 3)
	ix := NewIndex(points, Euclidean)
	if _, err := ix.Nearest([]float64{1, 2}, 3); err == nil {
		t.Fatal("dimension mismatch not rejected")
	}
	if _, err := ix.Nearest([]float64{1, 2, 3}, 0); err == nil {
		t.Fatal("k=0 not rejected")
	}
	empty := NewIndex(linalg.NewMatrix(0, 3), Euclidean)
	if _, err := empty.Nearest([]float64{1, 2, 3}, 3); err == nil {
		t.Fatal("empty point set not rejected")
	}
}

// TestIndexStats sanity-checks the introspection surface the serving tier
// and the lifecycle tests rely on: every search, a NaN query's too, is one
// search that offers every point.
func TestIndexStats(t *testing.T) {
	points := clouds()[0].gen(11, 300, 8)
	ix := NewIndex(points, Euclidean)
	if st := ix.Stats(); st != (IndexStats{}) || ix.Len() != 300 {
		t.Fatalf("unexpected stats before any search: %+v", st)
	}
	q := oracleQueries(12, points).Row(0)
	for i := 0; i < 5; i++ {
		if _, err := ix.Nearest(q, 3); err != nil {
			t.Fatal(err)
		}
	}
	st := ix.Stats()
	if st.Searches != 5 || st.PointsScored != 5*300 {
		t.Fatalf("searches=%d scored=%d, want 5 and %d", st.Searches, st.PointsScored, 5*300)
	}
	if st.PointsAbandoned <= 0 || st.PointsAbandoned >= st.PointsScored {
		t.Fatalf("abandoned %d of %d offered: want some, not all", st.PointsAbandoned, st.PointsScored)
	}
	nanq := make([]float64, 8)
	nanq[3] = math.NaN()
	if _, err := ix.Nearest(nanq, 3); err != nil {
		t.Fatal(err)
	}
	if st = ix.Stats(); st.Searches != 6 || st.PointsScored != 6*300 {
		t.Fatalf("searches=%d scored=%d after a NaN query, want 6 and %d", st.Searches, st.PointsScored, 6*300)
	}
}

// TestAbandonKeepsTies drives the scorer directly, in an order the flat scan
// never produces: the heap fills with a high-index point first, then a group
// arrives holding a candidate at exactly the kth-best distance with a smaller
// index, beside three far points that on their own would abandon. The sum 3
// is chosen because fl(√3)² < 3: a limit of worst² without the slack would
// already sit below the tied candidate's sum.
func TestAbandonKeepsTies(t *testing.T) {
	const dim = 40
	row := func(vals ...float64) []float64 { return append(vals, make([]float64, dim-len(vals))...) }
	far := row(50, 50)
	points := linalg.FromRows([][]float64{far, row(1, 1, 1), far, far, far, row(0, 1, 1, 1), far, far, far, far})
	q := make([]float64, dim)

	s := getScan(points, q, 1, Euclidean)
	defer putScan(s)
	s.score([]int{5})
	if s.limit >= 3.1 || s.limit <= 3 {
		t.Fatalf("limit after the first point is %v, want just above 3", s.limit)
	}
	s.score([]int{0, 1, 2, 3})
	if got := s.heap[0]; got.Index != 1 || got.Distance != math.Sqrt(3) {
		t.Fatalf("kth-best is %+v, want the equal-distance point with the smaller index 1", got)
	}
	if s.abandoned != 0 {
		t.Fatalf("%d candidates abandoned from a group holding a tie", s.abandoned)
	}
	// Without the tie the same far points go unscored: a full group and a
	// short one that repeats its last row.
	s.score([]int{6, 7, 8, 9})
	s.score([]int{2, 3})
	if s.abandoned != 6 || s.scored != 11 {
		t.Fatalf("abandoned %d of %d offered, want 6 of 11", s.abandoned, s.scored)
	}
	if out := s.drain(); len(out) != 1 || out[0].Index != 1 {
		t.Fatalf("result %+v, want index 1", out)
	}
}

// TestAbandonNeverArmsWithoutABound: a heap that is not full, a kth-best
// that is +Inf or NaN or too small for its square to be a normal float64,
// and the Cosine metric all leave the limit at +Inf.
func TestAbandonNeverArmsWithoutABound(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	points := linalg.FromRows([][]float64{{inf, 0}, {nan, 0}, {1e-160, 0}, {3, 4}, {0, 0}})
	q := []float64{0, 0}
	for _, c := range []struct {
		name   string
		metric Distance
		k      int
		rows   []int
		armed  bool
	}{
		{"not full", Euclidean, 3, []int{3, 4}, false},
		{"worst +Inf", Euclidean, 2, []int{0, 3}, false},
		{"worst NaN", Euclidean, 2, []int{1, 3}, false},
		{"worst subnormal-squared", Euclidean, 2, []int{2, 4}, false},
		{"cosine", Cosine, 1, []int{3}, false},
		{"ordinary", Euclidean, 2, []int{3, 4}, true},
	} {
		s := getScan(points, q, c.k, c.metric)
		s.score(c.rows)
		if armed := !math.IsInf(s.limit, 1); armed != c.armed {
			t.Errorf("%s: limit %v, armed=%v want %v", c.name, s.limit, armed, c.armed)
		}
		putScan(s)
	}
}

// TestAbandonCounts: on a wide cloud the scorer must actually abandon (or
// the oracle suite proves nothing about it), and PointsScored keeps counting
// every candidate offered, abandoned or not.
func TestAbandonCounts(t *testing.T) {
	points := clouds()[3].gen(77, 400, 80) // clustered
	ix := NewIndex(points, Euclidean)
	queries := oracleQueries(78, points)
	for qi := 0; qi < 2; qi++ { // ordinary, and coincident with a point
		want, err := Nearest(points, queries.Row(qi), 3, Euclidean)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ix.Nearest(queries.Row(qi), 3)
		if err != nil {
			t.Fatal(err)
		}
		mustEqualNeighbors(t, fmt.Sprintf("query %d", qi), got, want)
	}
	st := ix.Stats()
	if st.PointsAbandoned <= 0 || st.PointsAbandoned >= st.PointsScored {
		t.Fatalf("abandoned %d of %d offered: want some, not all", st.PointsAbandoned, st.PointsScored)
	}
	if st.PointsScored != 2*int64(points.Rows) {
		t.Fatalf("PointsScored=%d over 2 searches of %d points", st.PointsScored, points.Rows)
	}
}

// TestNaNTieBreakTotalOrder pins the completed total order: multiple
// NaN-distance rows sort last AND among themselves by ascending index, from
// the flat scan and the index alike.
func TestNaNTieBreakTotalOrder(t *testing.T) {
	rows := [][]float64{
		{1, 1}, {math.NaN(), 0}, {2, 2}, {math.NaN(), 5}, {0.5, 0.5}, {math.NaN(), 1},
	}
	points := linalg.FromRows(rows)
	q := []float64{0, 0}
	wantIdx := []int{4, 0, 2, 1, 3, 5} // finite ascending, then NaNs by index
	flat, err := Nearest(points, q, 6, Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	indexed, err := NewIndex(points, Euclidean).Nearest(q, 6)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range wantIdx {
		if flat[i].Index != want {
			t.Fatalf("flat neighbor %d has index %d, want %d", i, flat[i].Index, want)
		}
		if indexed[i].Index != want {
			t.Fatalf("index neighbor %d has index %d, want %d", i, indexed[i].Index, want)
		}
	}
}

// TestCosineDistanceToMatchesCosineDistance is the regression guard for the
// hoisted query norm: precomputing Norm(q) must not change a single bit.
func TestCosineDistanceToMatchesCosineDistance(t *testing.T) {
	rng := statutil.NewRNG(21, "cosine-hoist")
	for trial := 0; trial < 200; trial++ {
		dim := 1 + rng.Intn(16)
		a := make([]float64, dim)
		b := make([]float64, dim)
		for j := range a {
			a[j] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
			b[j] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
		}
		switch trial % 5 {
		case 1:
			for j := range a {
				a[j] = 0
			}
		case 2:
			for j := range b {
				b[j] = 0
			}
		case 3:
			a[rng.Intn(dim)] = math.NaN()
		}
		want := linalg.CosineDistance(a, b)
		got := linalg.CosineDistanceTo(a, b, linalg.Norm(b))
		if math.Float64bits(want) != math.Float64bits(got) {
			t.Fatalf("trial %d: CosineDistanceTo=%v, CosineDistance=%v", trial, got, want)
		}
	}
}
