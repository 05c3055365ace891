package knn

import (
	"math"
	"testing"

	"repro/internal/linalg"
)

var points = linalg.FromRows([][]float64{
	{0, 0},
	{1, 0},
	{0, 1},
	{5, 5},
	{10, 10},
})

var values = linalg.FromRows([][]float64{
	{10, 1},
	{20, 2},
	{30, 3},
	{40, 4},
	{50, 5},
})

func TestNearestEuclidean(t *testing.T) {
	nbs, err := Nearest(points, []float64{0.1, 0.1}, 3, Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	if len(nbs) != 3 {
		t.Fatalf("got %d neighbors", len(nbs))
	}
	if nbs[0].Index != 0 {
		t.Errorf("nearest = %d, want 0", nbs[0].Index)
	}
	for i := 1; i < len(nbs); i++ {
		if nbs[i].Distance < nbs[i-1].Distance {
			t.Error("neighbors not sorted by distance")
		}
	}
}

func TestNearestCosine(t *testing.T) {
	// Direction (1,1): cosine distance prefers (5,5) and (10,10) over
	// (1,0) despite their larger magnitudes.
	nbs, err := Nearest(points, []float64{1, 1}, 2, Cosine)
	if err != nil {
		t.Fatal(err)
	}
	got := map[int]bool{nbs[0].Index: true, nbs[1].Index: true}
	if !got[3] || !got[4] {
		t.Errorf("cosine neighbors = %v, want indexes 3 and 4", nbs)
	}
}

func TestNearestClampsK(t *testing.T) {
	nbs, err := Nearest(points, []float64{0, 0}, 100, Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	if len(nbs) != points.Rows {
		t.Errorf("k should clamp to n, got %d", len(nbs))
	}
}

func TestNearestErrors(t *testing.T) {
	if _, err := Nearest(linalg.NewMatrix(0, 2), []float64{1, 2}, 1, Euclidean); err == nil {
		t.Error("empty points accepted")
	}
	if _, err := Nearest(points, []float64{1, 2}, 0, Euclidean); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestCombineEqual(t *testing.T) {
	nbs := []Neighbor{{Index: 0, Distance: 1}, {Index: 1, Distance: 2}, {Index: 2, Distance: 3}}
	got := Combine(values, nbs, EqualWeight)
	if math.Abs(got[0]-20) > 1e-12 || math.Abs(got[1]-2) > 1e-12 {
		t.Errorf("equal combine = %v, want [20 2]", got)
	}
}

func TestCombineRank(t *testing.T) {
	nbs := []Neighbor{{Index: 0, Distance: 1}, {Index: 1, Distance: 2}, {Index: 2, Distance: 3}}
	got := Combine(values, nbs, RankWeight)
	// 3:2:1 weights → (3·10 + 2·20 + 1·30) / 6 = 100/6.
	if math.Abs(got[0]-100.0/6) > 1e-12 {
		t.Errorf("rank combine = %v, want %v", got[0], 100.0/6)
	}
}

func TestCombineDistance(t *testing.T) {
	nbs := []Neighbor{{Index: 0, Distance: 1}, {Index: 1, Distance: 1e9}}
	got := Combine(values, nbs, DistanceWeight)
	// The far neighbor contributes almost nothing.
	if math.Abs(got[0]-10) > 0.01 {
		t.Errorf("distance combine = %v, want ~10", got[0])
	}
}

func TestCombineEmpty(t *testing.T) {
	got := Combine(values, nil, EqualWeight)
	for _, v := range got {
		if v != 0 {
			t.Errorf("empty combine = %v", got)
		}
	}
}

func TestPredict(t *testing.T) {
	pred, nbs, err := Predict(points, values, []float64{0.2, 0.2}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(nbs) != 3 {
		t.Fatalf("neighbors = %d", len(nbs))
	}
	// Neighbors are rows 0,1,2 → mean of values = (20, 2).
	if math.Abs(pred[0]-20) > 1e-12 {
		t.Errorf("prediction = %v", pred)
	}
	if _, _, err := Predict(points, linalg.NewMatrix(2, 2), []float64{0, 0}, DefaultOptions()); err == nil {
		t.Error("mismatched values accepted")
	}
}

func TestConfidence(t *testing.T) {
	near := []Neighbor{{Distance: 0.01}, {Distance: 0.02}}
	far := []Neighbor{{Distance: 100}, {Distance: 200}}
	cn := Confidence(near, 1)
	cf := Confidence(far, 1)
	if cn <= cf {
		t.Errorf("near confidence (%v) should exceed far (%v)", cn, cf)
	}
	if cn <= 0 || cn > 1 {
		t.Errorf("confidence out of range: %v", cn)
	}
	if Confidence(nil, 1) != 0 {
		t.Error("empty neighbors should have zero confidence")
	}
	if Confidence(near, 0) <= 0 {
		t.Error("zero scale should fall back safely")
	}
}

func TestMetricAndWeightingStrings(t *testing.T) {
	if Euclidean.String() != "euclidean" || Cosine.String() != "cosine" {
		t.Error("distance names wrong")
	}
	if EqualWeight.String() != "equal" || RankWeight.String() != "rank(3:2:1)" || DistanceWeight.String() != "inverse-distance" {
		t.Error("weighting names wrong")
	}
}

// TestCombineRankWeightGeneralizes pins down that RankWeight's "3:2:1 (and
// so on)" weight vector generalizes beyond the paper's k = 3: for any k the
// weights are k:(k-1):…:1 by nearness rank and normalize to sum to 1.
func TestCombineRankWeightGeneralizes(t *testing.T) {
	values := linalg.FromRows([][]float64{
		{1, 10},
		{2, 20},
		{3, 30},
		{4, 40},
		{5, 50},
	})
	for _, k := range []int{1, 2, 3, 5} {
		neighbors := make([]Neighbor, k)
		for i := range neighbors {
			neighbors[i] = Neighbor{Index: i, Distance: float64(i)}
		}
		got := Combine(values, neighbors, RankWeight)

		// Reference: explicit k:(k-1):…:1 weighted mean.
		var total float64
		want := make([]float64, values.Cols)
		for rank := 0; rank < k; rank++ {
			wt := float64(k - rank)
			total += wt
			for j := 0; j < values.Cols; j++ {
				want[j] += wt * values.At(rank, j)
			}
		}
		for j := range want {
			want[j] /= total
		}
		for j := range want {
			if diff := got[j] - want[j]; diff > 1e-12 || diff < -1e-12 {
				t.Errorf("k=%d: out[%d] = %v, want %v", k, j, got[j], want[j])
			}
		}
		// total must equal k(k+1)/2 — the full k:(k-1):…:1 vector, not a
		// hard-coded three ranks.
		if total != float64(k*(k+1))/2 {
			t.Fatalf("k=%d: reference weight total %v, want %v", k, total, float64(k*(k+1))/2)
		}
	}
}

// TestCombineRankWeightNormalizes: with identical neighbor rows any
// normalized weighting must return the row itself, for every k.
func TestCombineRankWeightNormalizes(t *testing.T) {
	row := []float64{7, -3, 0.5}
	rows := make([][]float64, 5)
	for i := range rows {
		rows[i] = row
	}
	values := linalg.FromRows(rows)
	for _, k := range []int{1, 2, 3, 5} {
		neighbors := make([]Neighbor, k)
		for i := range neighbors {
			neighbors[i] = Neighbor{Index: i, Distance: float64(i) * 0.1}
		}
		got := Combine(values, neighbors, RankWeight)
		for j := range row {
			if diff := got[j] - row[j]; diff > 1e-12 || diff < -1e-12 {
				t.Errorf("k=%d: out[%d] = %v, want %v (weights must sum to 1)", k, j, got[j], row[j])
			}
		}
	}
}

// TestCombineLargeFiniteValues: neighbor values whose weighted sum overflows
// although their weighted mean does not still combine to that mean, under
// every weighting, and a component that overflows only because a neighbor's
// value is itself infinite stays infinite. Components whose weighted sum is
// finite keep the bits of Σ wtᵢ·vᵢ · (1/Σ wtᵢ).
func TestCombineLargeFiniteValues(t *testing.T) {
	big := linalg.FromRows([][]float64{
		{1e308, 3, 1e308},
		{1e308, 5, math.Inf(1)},
		{6e307, 7, 2},
		{1e300, 11, 1e300},
	})
	for _, tc := range []struct {
		w   Weighting
		nbs []Neighbor
	}{
		{EqualWeight, []Neighbor{{Index: 0, Distance: 0.5}, {Index: 1, Distance: 1}}},
		{EqualWeight, []Neighbor{{Index: 0, Distance: 0.5}, {Index: 1, Distance: 1}, {Index: 2, Distance: 2}}},
		{RankWeight, []Neighbor{{Index: 2, Distance: 0.5}, {Index: 3, Distance: 1}, {Index: 3, Distance: 2}}},
		{RankWeight, []Neighbor{{Index: 0, Distance: 0.5}, {Index: 1, Distance: 1}, {Index: 2, Distance: 2}}},
		{DistanceWeight, []Neighbor{{Index: 3, Distance: 0}, {Index: 3, Distance: 0}}},
		{DistanceWeight, []Neighbor{{Index: 0, Distance: 0}, {Index: 1, Distance: 1e-9}, {Index: 2, Distance: 3}}},
	} {
		got := Combine(big, tc.nbs, tc.w)
		recomputed := false
		total := 0.0
		for rank, nb := range tc.nbs {
			total += tc.w.weight(rank, len(tc.nbs), nb)
		}
		for j := range got {
			sum, mean, finite := 0.0, 0.0, true
			for rank, nb := range tc.nbs {
				wt, v := tc.w.weight(rank, len(tc.nbs), nb), big.At(nb.Index, j)
				sum += wt * v
				mean += wt / total * v
				finite = finite && !math.IsInf(v, 0)
			}
			want := sum * (1 / total)
			switch {
			case !math.IsInf(want, 0):
			case finite:
				want, recomputed = mean, true
				if math.IsInf(want, 0) {
					t.Fatalf("%v %v: column %d: reference mean %v is not finite", tc.w, tc.nbs, j, want)
				}
			}
			if math.Float64bits(got[j]) != math.Float64bits(want) {
				t.Errorf("%v %v: column %d = %v, want %v", tc.w, tc.nbs, j, got[j], want)
			}
		}
		if !recomputed {
			t.Errorf("%v %v: no column's weighted sum overflowed", tc.w, tc.nbs)
		}
	}
}
