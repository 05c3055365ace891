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
// row and one 1e200 row, which the tree keeps out as stragglers.
func blockedCloud(seed int64, n, dim int) *linalg.Matrix {
	m := clouds()[3].gen(seed, n, dim)
	for i := 4; i < n; i += 5 {
		copy(m.Row(i), m.Row(i-1))
	}
	m.Row(n / 3)[dim/2] = math.NaN()
	m.Row(2 * n / 3)[0] = 1e200
	return m
}

// TestBlockedMatchesGather holds scoreLeaf to score on one and the same
// index: a search that reads the feature-major blocks and a search of the
// same tree with the blocks taken away (walk then hands every leaf to score)
// must return the same neighbours bit for bit and have offered and abandoned
// the same number of points — on both kernel paths, for leaves that are one
// short group, exactly one group, one block to the column and a block and a
// bit, and for points of less than, exactly and more than one stride. The
// flat-scan oracle is checked beside them. An index built while the vector
// kernels are off has no blocks (build says why); the test packs them itself
// there, so that scoreLeaf's arithmetic is held on the portable loops too.
func TestBlockedMatchesGather(t *testing.T) {
	const n = 230
	var abandoned, rescored int
	defer linalg.SetVectorKernels(linalg.VectorKernels())
	for _, on := range []bool{true, false} {
		linalg.SetVectorKernels(on)
		for _, dim := range []int{1, 15, 16, 17, 80} {
			points := blockedCloud(int64(90+dim), n, dim)
			queries := oracleQueries(int64(91+dim), points)
			for _, leaf := range []int{1, 3, 4, 5, 15, 16, 17, 33} {
				ix := NewIndexWith(points, Euclidean, IndexConfig{LeafSize: leaf})
				if (ix.blocks != nil) != linalg.VectorKernels() || len(ix.stragglers) != 2 {
					t.Fatalf("avx2=%v dim %d leaf %d: blocks %d, stragglers %v", linalg.VectorKernels(), dim, leaf, len(ix.blocks), ix.stragglers)
				}
				if ix.blocks == nil {
					ix.packLeaves()
				}
				for _, k := range []int{1, 3, n} {
					for qi := 0; qi < queries.Rows; qi++ {
						q := queries.Row(qi)
						ctx := fmt.Sprintf("avx2=%v dim=%d leaf=%d k=%d query=%d", linalg.VectorKernels(), dim, leaf, k, qi)
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

// TestBlockedLayout pins the store itself: every leaf's rows in tree order,
// feature-major, a short block filled out with the leaf's last point.
func TestBlockedLayout(t *testing.T) {
	const dim = 7
	points := clouds()[0].gen(5, 300, dim)
	for _, leaf := range []int{5, 16, 40} {
		ix := NewIndexWith(points, Euclidean, IndexConfig{LeafSize: leaf})
		if ix.blocks == nil { // built on the portable loops
			ix.packLeaves()
		}
		next := 0
		for _, nd := range ix.nodes {
			if nd.axis >= 0 {
				continue
			}
			if int(nd.block) != next {
				t.Fatalf("leaf %d: leaf [%d,%d) starts at block %d, want %d", leaf, nd.lo, nd.hi, nd.block, next)
			}
			rows := ix.order[nd.lo:nd.hi]
			for at := 0; at < len(rows); at, next = at+blockCols, next+1 {
				blk := ix.blocks[next*dim*blockCols:][:dim*blockCols]
				for c := 0; c < blockCols; c++ {
					p := points.Row(rows[min(at+c, len(rows)-1)])
					for j := range p {
						if blk[j*blockCols+c] != p[j] {
							t.Fatalf("leaf %d: block %d column %d is not row %d", leaf, next, c, rows[min(at+c, len(rows)-1)])
						}
					}
				}
			}
		}
		if len(ix.blocks) != next*dim*blockCols {
			t.Fatalf("leaf %d: %d floats stored for %d blocks", leaf, len(ix.blocks), next)
		}
	}
	if ix := NewIndex(points, Cosine); ix.blocks != nil {
		t.Fatal("a Cosine index has no use for the blocked store")
	}
}

// TestLeaveOneOut: the k nearest other rows, as the flat scan ranks them
// with the row itself struck out — including when the row has more
// zero-distance twins of smaller index than k — and no counter moved.
func TestLeaveOneOut(t *testing.T) {
	points := clouds()[1].gen(8, 120, 6) // three distinct rows, many copies
	rng := statutil.NewRNG(9, "loo")
	for _, ix := range []*Index{NewIndex(points, Euclidean), NewIndexWith(points, Euclidean, IndexConfig{MinPoints: 1000})} {
		for trial := 0; trial < 40; trial++ {
			i, k := rng.Intn(points.Rows), 1+rng.Intn(points.Rows+3)
			all, err := Nearest(points, points.Row(i), points.Rows, Euclidean)
			if err != nil {
				t.Fatal(err)
			}
			got := ix.LeaveOneOut(i, k)
			if len(got) != min(k, points.Rows-1) {
				t.Fatalf("row %d k %d: %d neighbours", i, k, len(got))
			}
			want := 0
			for j, nb := range got {
				if all[want].Index == i {
					want++
				}
				if nb.Index == i || math.Float64bits(nb.Distance) != math.Float64bits(all[want].Distance) {
					t.Fatalf("row %d k %d: neighbour %d = %+v, scan without the row has %+v", i, k, j, nb, all[want])
				}
				want++
			}
		}
		if st := ix.Stats(); st.Searches != 0 || st.FlatSearches != 0 || st.PointsScored != 0 || st.NodesVisited != 0 {
			t.Fatalf("LeaveOneOut counted as served searches: %+v", st)
		}
	}
}
