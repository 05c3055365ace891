package knn

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/linalg"
	"repro/internal/parallel"
	"repro/internal/statutil"
)

func equivWorkerCounts() []int { return []int{1, 2, 7, runtime.NumCPU()} }

func randPoints(seed int64, r, c int) *linalg.Matrix {
	rng := statutil.NewRNG(seed, "knn-equiv")
	m := linalg.NewMatrix(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestNearestParallelMatchesSerial(t *testing.T) {
	for _, metric := range []Distance{Euclidean, Cosine} {
		points := randPoints(3, 409, 6)
		q := randPoints(4, 1, 6).Row(0)

		defer parallel.SetMaxProcs(parallel.SetMaxProcs(1))
		want, err := Nearest(points, q, 5, metric)
		if err != nil {
			t.Fatal(err)
		}

		for _, w := range equivWorkerCounts() {
			parallel.SetMaxProcs(w)
			got, err := Nearest(points, q, 5, metric)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("metric=%v workers=%d: %d neighbors, serial %d", metric, w, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("metric=%v workers=%d: neighbor %d = %+v, serial %+v", metric, w, i, got[i], want[i])
				}
			}
		}
		parallel.SetMaxProcs(0)
	}
}

// TestConcurrentNearestMatchesSerial: goroutines that search one shared
// index and point set at once, at every worker count, get the serial
// Nearest's neighbors bit for bit from both Index.Nearest and Nearest.
func TestConcurrentNearestMatchesSerial(t *testing.T) {
	points := randPoints(5, 301, 8)
	queries := randPoints(6, 37, 8)
	const k = 4
	ix := NewIndex(points, Euclidean)

	// Serial oracle: Nearest per query at one worker.
	defer parallel.SetMaxProcs(parallel.SetMaxProcs(1))
	want := make([][]Neighbor, queries.Rows)
	for i := 0; i < queries.Rows; i++ {
		nbs, err := Nearest(points, queries.Row(i), k, Euclidean)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = nbs
	}

	for _, w := range equivWorkerCounts() {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			parallel.SetMaxProcs(w)
			concurrentNearest(t, fmt.Sprintf("workers=%d", w), ix, points, queries, k, w, want)
		})
	}
	parallel.SetMaxProcs(0)
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
// rows, equal-distance neighbors must come back ordered by index at every
// worker count, so parallel partitioning can never reorder downstream
// predictions (rank weighting makes order observable).
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
	for _, w := range equivWorkerCounts() {
		defer parallel.SetMaxProcs(parallel.SetMaxProcs(w))
		nbs, err := Nearest(points, q, 6, Euclidean)
		if err != nil {
			t.Fatal(err)
		}
		for i, nb := range nbs {
			if nb.Index != wantIdx[i] {
				t.Fatalf("workers=%d: neighbor %d has index %d, want %d (ties must break by index)", w, i, nb.Index, wantIdx[i])
			}
		}
		// The tree must agree with the flat scan.
		tree, err := NewIndexWith(points, Euclidean, IndexConfig{MinPoints: 1, LeafSize: 3}).Nearest(q, 6)
		if err != nil {
			t.Fatal(err)
		}
		if len(tree) != len(wantIdx) {
			t.Fatalf("workers=%d: Index.Nearest returned %d neighbors, want %d", w, len(tree), len(wantIdx))
		}
		for i, nb := range tree {
			if nb.Index != wantIdx[i] {
				t.Fatalf("workers=%d: Index.Nearest neighbor %d has index %d, want %d", w, i, nb.Index, wantIdx[i])
			}
		}
		parallel.SetMaxProcs(0)
	}
}
