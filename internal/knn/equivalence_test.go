package knn

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"testing"

	"repro/internal/linalg"
	"repro/internal/statutil"
)

// workerCounts is how many goroutines (workers) search one index at once.
func workerCounts() []int { return []int{1, 2, 7, runtime.NumCPU()} }

func randPoints(seed int64, r, c int) *linalg.Matrix {
	rng := statutil.NewRNG(seed, "knn-equiv")
	m := linalg.NewMatrix(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// TestNearestMatchesBruteForce holds Nearest to the textbook search: every
// row's linalg.Dist or linalg.CosineDistance to the query, sorted by
// (distance, index). Rows 7 and 300 repeat row 11, so ties occur.
func TestNearestMatchesBruteForce(t *testing.T) {
	points := randPoints(3, 409, 6)
	copy(points.Row(7), points.Row(11))
	copy(points.Row(300), points.Row(11))
	extra := randPoints(4, 2, 6)
	queries := [][]float64{points.Row(11), extra.Row(0), extra.Row(1)}
	for _, metric := range []Distance{Euclidean, Cosine} {
		t.Run(metric.String(), func(t *testing.T) {
			for qi, q := range queries {
				want := make([]Neighbor, points.Rows)
				for i := range want {
					d := linalg.Dist(points.Row(i), q)
					if metric == Cosine {
						d = linalg.CosineDistance(points.Row(i), q)
					}
					want[i] = Neighbor{Index: i, Distance: d}
				}
				sort.SliceStable(want, func(a, b int) bool { return want[a].Distance < want[b].Distance })
				for _, k := range []int{1, 5, points.Rows} {
					got, err := Nearest(points, q, k, metric)
					if err != nil {
						t.Fatal(err)
					}
					mustEqualNeighbors(t, fmt.Sprintf("query %d k=%d", qi, k), got, want[:k])
				}
			}
		})
	}
}

// TestConcurrentNearestMatchesSerial: goroutines that search one shared
// index and point set at once get the serial Nearest's neighbors bit for
// bit from both Index.Nearest and Nearest.
func TestConcurrentNearestMatchesSerial(t *testing.T) {
	points := randPoints(5, 301, 8)
	queries := randPoints(6, 37, 8)
	const k = 4
	ix := NewIndex(points, Euclidean)

	// Serial oracle: Nearest per query on one goroutine.
	want := make([][]Neighbor, queries.Rows)
	for i := 0; i < queries.Rows; i++ {
		nbs, err := Nearest(points, queries.Row(i), k, Euclidean)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = nbs
	}

	for _, w := range workerCounts() {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			concurrentNearest(t, fmt.Sprintf("workers=%d", w), ix, points, queries, k, w, want)
		})
	}
}

// TestNearestRejectsBadInput: the flat scan and the index return the same
// sentinel error for each bad input.
func TestNearestRejectsBadInput(t *testing.T) {
	points := randPoints(7, 10, 3)
	empty := linalg.NewMatrix(0, 3)
	q := randPoints(9, 1, 3).Row(0)
	cases := []struct {
		name   string
		points *linalg.Matrix
		q      []float64
		k      int
		want   error
	}{
		{"dimension", points, randPoints(8, 1, 4).Row(0), 3, ErrDimension},
		{"k=0", points, q, 0, ErrBadK},
		{"empty", empty, q, 3, ErrNoPoints},
	}
	searches := []struct {
		name    string
		nearest func(points *linalg.Matrix, q []float64, k int) ([]Neighbor, error)
	}{
		{"flat", func(points *linalg.Matrix, q []float64, k int) ([]Neighbor, error) {
			return Nearest(points, q, k, Euclidean)
		}},
		{"index", func(points *linalg.Matrix, q []float64, k int) ([]Neighbor, error) {
			return NewIndex(points, Euclidean).Nearest(q, k)
		}},
	}
	for _, s := range searches {
		t.Run(s.name, func(t *testing.T) {
			for _, c := range cases {
				t.Run(c.name, func(t *testing.T) {
					if _, err := s.nearest(c.points, c.q, c.k); !errors.Is(err, c.want) {
						t.Fatalf("err = %v, want %v", err, c.want)
					}
				})
			}
		})
	}
}

// TestTieBreakByIndexWithDuplicateRows is the regression test for
// nondeterministic tie-breaking: with deliberately duplicated training
// rows, equal-distance neighbors must come back ordered by index from the
// flat scan and the index alike, so the path taken can never reorder
// downstream predictions (rank weighting makes order observable).
func TestTieBreakByIndexWithDuplicateRows(t *testing.T) {
	// Rows 2, 5, 9, 11 are identical, all at distance 0 from the query;
	// rows 0 and 7 are identical at a larger distance.
	base := [][]float64{
		{4, 4}, // 0: dup far pair
		{9, 9},
		{1, 2}, // 2: dup of 5, 9, 11
		{8, 1},
		{7, 7},
		{1, 2}, // 5
		{6, 0},
		{4, 4}, // 7: dup of 0
		{9, 1},
		{1, 2}, // 9
		{5, 5},
		{1, 2}, // 11
	}
	points := linalg.FromRows(base)
	q := []float64{1, 2}

	wantIdx := []int{2, 5, 9, 11, 0, 7}
	nbs, err := Nearest(points, q, 6, Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	for i, nb := range nbs {
		if nb.Index != wantIdx[i] {
			t.Fatalf("neighbor %d has index %d, want %d (ties must break by index)", i, nb.Index, wantIdx[i])
		}
	}
	// The index must agree with the flat scan.
	indexed, err := NewIndex(points, Euclidean).Nearest(q, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(indexed) != len(wantIdx) {
		t.Fatalf("Index.Nearest returned %d neighbors, want %d", len(indexed), len(wantIdx))
	}
	for i, nb := range indexed {
		if nb.Index != wantIdx[i] {
			t.Fatalf("Index.Nearest neighbor %d has index %d, want %d", i, nb.Index, wantIdx[i])
		}
	}
}
