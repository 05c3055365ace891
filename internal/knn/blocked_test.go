package knn

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/linalg"
	"repro/internal/statutil"
)

// blockedCloud is a clustered cloud (so a kth-best distance arms the abandon
// limit early and most groups fall to it) in which every fifth row repeats
// the row before it (index tie-breaks inside and across groups), with one NaN
// row and one 1e200 row.
func blockedCloud(seed int64, n, dim int) *linalg.Matrix {
	m := clouds()[3].gen(seed, n, dim)
	for i := 4; i < n; i += 5 {
		copy(m.Row(i), m.Row(i-1))
	}
	m.Row(n / 3)[dim/2] = math.NaN()
	m.Row(2 * n / 3)[0] = 1e200
	return m
}

// TestBlockedMatchesGather holds scoreBlock to score on one and the same
// index: a search that reads the feature-major blocks and a search with the
// blocks taken away (search then hands every block to score) must return the
// same neighbours bit for bit and have offered, abandoned and so visited the
// same points — on both kernel paths, for a last block that is one short
// group, exactly one group, a whole block and a block and a bit, for points
// of less than, exactly and more than one stride, and for a NaN row whose
// NaN arrives after the first stride. The flat-scan oracle is checked beside
// them. An index built while the vector kernels are off has no blocks
// (NewIndex says why); the test packs them itself there, so that
// scoreBlock's arithmetic is held on the portable loops too.
func TestBlockedMatchesGather(t *testing.T) {
	var abandoned, rescored int
	defer linalg.SetVectorKernels(linalg.VectorKernels())
	for _, on := range []bool{true, false} {
		linalg.SetVectorKernels(on)
		for _, dim := range []int{1, 15, 16, 17, 80} {
			for _, n := range []int{225, 228, 230, 240, 241} {
				points := blockedCloud(int64(90+dim), n, dim)
				queries := oracleQueries(int64(91+dim), points)
				ix := NewIndex(points, Euclidean)
				if (ix.blocks != nil) != linalg.VectorKernels() {
					t.Fatalf("avx2=%v dim %d: %d floats in the blocked store", linalg.VectorKernels(), dim, len(ix.blocks))
				}
				if ix.blocks == nil {
					ix.pack()
				}
				for _, k := range []int{1, 3, n} {
					for qi := 0; qi < queries.Rows; qi++ {
						q := queries.Row(qi)
						ctx := fmt.Sprintf("avx2=%v dim=%d n=%d k=%d query=%d", linalg.VectorKernels(), dim, n, k, qi)
						got, blocked := ix.search(q, k)

						blocks := ix.blocks
						ix.blocks = nil
						want, gather := ix.search(q, k)
						ix.blocks = blocks

						mustEqualNeighbors(t, ctx, got, want)
						abandoned, rescored = abandoned+blocked.abandoned, rescored+blocked.rescored
						if blocked.rescored = 0; blocked != gather { // only the blocked scorer rescores
							t.Fatalf("%s: blocked search %+v, gather search %+v", ctx, blocked, gather)
						}
						if blocked.scored != n {
							t.Fatalf("%s: %d of %d points offered", ctx, blocked.scored, n)
						}
						oracle, err := Nearest(points, q, k, Euclidean)
						if err != nil {
							t.Fatal(err)
						}
						mustEqualNeighbors(t, ctx+" (flat oracle)", got, oracle)
					}
				}
			}
		}
	}
	if abandoned == 0 || rescored == 0 {
		t.Fatalf("%d points abandoned, %d blocks rescored: the table does not reach both outcomes of the first look", abandoned, rescored)
	}
}

// TestBlockedLayout pins the store itself: the rows sorted by (first
// coordinate, row), every block's leading key, and every block's rows
// feature-major, a short last block filled out with its last point.
func TestBlockedLayout(t *testing.T) {
	const dim = 7
	for _, n := range []int{5, 16, 40, 300} {
		points := clouds()[0].gen(5, n, dim)
		copy(points.Row(n-1), points.Row(0)) // a tie on the key, broken by row
		ix := NewIndex(points, Euclidean)
		if ix.blocks == nil { // built on the portable loops
			ix.pack()
		}
		for i := 1; i < n; i++ {
			a, b := ix.order[i-1], ix.order[i]
			if ka, kb := points.At(a, 0), points.At(b, 0); ka > kb || ka == kb && a > b {
				t.Fatalf("n %d: row %d (key %v) sorts before row %d (key %v)", n, a, ka, b, kb)
			}
		}
		if nblocks := (n + blockCols - 1) / blockCols; len(ix.keys) != nblocks || len(ix.blocks) != nblocks*dim*blockCols {
			t.Fatalf("n %d: %d keys and %d floats stored for %d blocks", n, len(ix.keys), len(ix.blocks), nblocks)
		}
		for b := range ix.keys {
			rows := ix.block(b)
			if ix.keys[b] != points.At(rows[0], 0) {
				t.Fatalf("n %d: block %d has key %v, its first row %v", n, b, ix.keys[b], points.At(rows[0], 0))
			}
			blk := ix.blocks[b*dim*blockCols:][:dim*blockCols]
			for c := 0; c < blockCols; c++ {
				p := points.Row(rows[min(c, len(rows)-1)])
				for j := range p {
					if blk[j*blockCols+c] != p[j] {
						t.Fatalf("n %d: block %d column %d is not row %d", n, b, c, rows[min(c, len(rows)-1)])
					}
				}
			}
		}
	}
	if ix := NewIndex(clouds()[0].gen(5, 40, dim), Cosine); ix.blocks != nil {
		t.Fatal("a Cosine index has no use for the blocked store")
	}
}

// TestLeaveOneOut: the k nearest other rows, as the flat scan ranks them
// with the row itself struck out — including when the row has more
// zero-distance twins of smaller index than k — over many blocks and within
// one short block, and with k as large as an int goes — and no counter
// moved.
func TestLeaveOneOut(t *testing.T) {
	rng := statutil.NewRNG(9, "loo")
	for _, n := range []int{120, 12} {
		points := clouds()[1].gen(8, n, 6) // three distinct rows, many copies
		ix := NewIndex(points, Euclidean)
		for trial := 0; trial < 40; trial++ {
			i, k := rng.Intn(points.Rows), 1+rng.Intn(points.Rows+3)
			if trial == 0 {
				k = math.MaxInt
			}
			all, err := Nearest(points, points.Row(i), points.Rows, Euclidean)
			if err != nil {
				t.Fatal(err)
			}
			got := ix.LeaveOneOut(i, k)
			if len(got) != min(k, points.Rows-1) {
				t.Fatalf("n %d row %d k %d: %d neighbours", n, i, k, len(got))
			}
			want := 0
			for j, nb := range got {
				if all[want].Index == i {
					want++
				}
				if nb.Index == i || math.Float64bits(nb.Distance) != math.Float64bits(all[want].Distance) {
					t.Fatalf("n %d row %d k %d: neighbour %d = %+v, scan without the row has %+v", n, i, k, j, nb, all[want])
				}
				want++
			}
		}
		if st := ix.Stats(); st.Searches != 0 || st.PointsScored != 0 || st.PointsAbandoned != 0 {
			t.Fatalf("LeaveOneOut counted as served searches: %+v", st)
		}
	}
}
