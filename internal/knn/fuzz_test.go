package knn

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/linalg"
)

// FuzzIndex feeds arbitrary float bit patterns through index build and
// search. The invariants under fuzz:
//
//  1. build/search never panic, whatever the coordinates (NaN, ±Inf,
//     subnormals, huge magnitudes);
//  2. every returned neighbor's distance verifies against a direct
//     recomputation with the same metric (bit-identical);
//  3. the returned set is sorted under the total (distance, index) order;
//  4. the full result is bit-identical to the flat-scan oracle.
//
// The seed corpus under testdata/fuzz/FuzzIndex pins clouds with NaN rows,
// infinities, duplicate points, zero vectors, huge magnitudes, and two
// subnormal points both at computed distance 0 from a query with a nonzero
// gap between them (c45e4d424dfc4e23, which once broke the tree's pruning). It
// was collected against the KD-tree this index replaced, under the same
// decoding of the bytes, so every stored input still means the same cloud.
// The top bit of the dimension byte adds 32 dimensions, so the scorer's
// partial-sum abandon (checked every 16 terms) is reachable; the two wide
// seeds below pin an equal-distance, smaller-index tie behind far points and
// squared terms that overflow to +Inf. Bit 4 adds 16 dimensions (17 is one
// stride and one more row: the blocked scorer's first look falls short of
// the whole sum). Bit 3 chose the tree's leaf size and selects nothing now;
// the last two seeds pin a full group and a short one, and a tail the first
// stride does not see.
func FuzzIndex(f *testing.F) {
	add := func(vals []float64, k, dim uint8, cosine bool) {
		buf := make([]byte, 8*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
		}
		f.Add(buf, k, dim, cosine)
	}
	add([]float64{0.5, -1, 1, 2, 3, -4, 0.25, 8, 1e-3}, 3, 2, false)
	add([]float64{1, 1, math.NaN(), 2, 1, 1, math.Inf(1), 0, 1e200, -1e200, 0, 0}, 2, 2, true)
	add([]float64{0, 0, 0, 0, 1e-300, -1e-300, 5e151, 2, 1, 1, 1, 1}, 4, 2, true)
	wide := func(lead ...float64) []float64 { return append(lead, make([]float64, 33-len(lead))...) }
	var tie, overflow []float64
	for _, row := range [][]float64{wide() /* the query */, wide(9, 9), wide(1, 1, 1), wide(9, 9), wide(9, 9), wide(1, 1, 1), wide(-9, 9)} {
		tie = append(tie, row...)
	}
	for _, row := range [][]float64{wide(), wide(1e200), wide(1), wide(-1e200, 1e200), wide(1e160), wide(2), wide(1e-200)} {
		overflow = append(overflow, row...)
	}
	add(tie, 0, 0x80, false)
	add(overflow, 1, 0x80, false)
	// 3-dimensional points, most of them far from the query at the origin,
	// two at it (a tie), one of those in a short group.
	add([]float64{0, 0, 0 /* the query */, 7, 7, 7, 0, 0, 0, 7, 8, 7, -7, 7, 7, 8, 8, 8, 7, -7, 7, 0, 0, 0, 9, 9, 9, 1, 1, 1, -9, 9, 9, 6, 6, 6}, 1, 0x0a, false)
	// 17 dimensions: points that differ from their neighbours only in the
	// last coordinate, the one the first stride does not see.
	var last []float64
	for _, tail := range []float64{0 /* the query */, 5, 1, 5, 5, 1, -5, 3} {
		row := make([]float64, 17)
		row[0], row[16] = 2, tail
		last = append(last, row...)
	}
	add(last, 2, 0x10, false)

	f.Fuzz(func(t *testing.T, data []byte, kRaw, dimRaw uint8, cosine bool) {
		// Unchanged since the corpus was written: bit 3 adds nothing here.
		dim := 1 + int(dimRaw)%8 + int(dimRaw&0x10) + int(dimRaw&0x80)/4
		nFloats := len(data) / 8
		if nFloats < 2*dim {
			return // need at least a query and one point
		}
		vals := make([]float64, nFloats)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		q := vals[:dim]
		n := (nFloats - dim) / dim
		points := linalg.NewMatrixFrom(n, dim, vals[dim:dim+n*dim])
		k := 1 + int(kRaw)%(n+2) // sometimes exceeds n: must clamp, not panic

		metric := Euclidean
		if cosine {
			metric = Cosine
		}
		ix := NewIndex(points, metric)
		got, err := ix.Nearest(q, k)
		if err != nil {
			t.Fatalf("index search failed on valid input: %v", err)
		}
		wantLen := k
		if wantLen > n {
			wantLen = n
		}
		if len(got) != wantLen {
			t.Fatalf("got %d neighbors, want %d", len(got), wantLen)
		}
		var qn float64
		if metric == Cosine {
			qn = linalg.Norm(q)
		}
		for i, nb := range got {
			if nb.Index < 0 || nb.Index >= n {
				t.Fatalf("neighbor %d has out-of-range index %d", i, nb.Index)
			}
			direct := pointDistance(points.Row(nb.Index), q, qn, metric)
			if math.Float64bits(direct) != math.Float64bits(nb.Distance) {
				t.Fatalf("neighbor %d reports distance %v, direct recomputation %v", i, nb.Distance, direct)
			}
			if i > 0 && less(nb, got[i-1]) {
				t.Fatalf("neighbors %d and %d violate the (distance, index) total order", i-1, i)
			}
		}
		want, err := Nearest(points, q, k, metric)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i].Index != want[i].Index ||
				math.Float64bits(got[i].Distance) != math.Float64bits(want[i].Distance) {
				t.Fatalf("neighbor %d = {%d %v}, flat oracle {%d %v}",
					i, got[i].Index, got[i].Distance, want[i].Index, want[i].Distance)
			}
		}
	})
}
