// Exact k-nearest-neighbor index over the projected training points, the
// paper's Fig. 7 prediction step. An Index is built once per model
// generation at retrain-install time and is immutable afterwards, so serving
// reads are lock-free (the hot-swap discipline of core.SlidingPredictor and
// the shard slots).
//
// A search is a scan: it offers every point to one k-bounded heap under the
// total (distance, index) order, NaN-last, each with the float64 distance
// Nearest computes for it. The heap keeps the k least points whatever order
// they arrive in, so the result is Nearest's bit for bit, with no bound,
// slack or fallback for that to rest on. What the index adds is the order,
// and a scorer that profits from it:
//
//   - The rows are sorted once by their first coordinate — for a KCCA
//     projection the leading kernel-PCA component, whitened (Lx⁻ᵀ is
//     triangular) — and a search takes them in blocks of blockCols, outward
//     from the block the query's first coordinate falls in, so the heap
//     holds near neighbors early.
//   - Euclidean candidates are scored four at a time, and a group is dropped
//     part-way through its distance sums once none of it can enter the
//     result (abandonSlack): the nearer the heap's neighbors, the more fall.
//   - Where linalg's vector kernels serve, a Euclidean index keeps its points
//     again, feature-major in blocks (Index.blocks), and scoreBlock takes the
//     first look SqDist4 would take at every group of a block in one
//     linalg.SqDistCols call over a contiguous 2 KB; only a block some group
//     of which outlives that look is summed over all its rows. Elsewhere, and
//     under Cosine, the gather scorer (score) reads the row-major points. The
//     two drop and offer the same points (see scoreBlock).
//
// At the 80 dimensions of a stock projection a KD-tree still offered five of
// every six points per search; DESIGN.md §5 has the measurements that
// retired it.
package knn

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/linalg"
	"repro/internal/obs"
)

// Index metrics: builds, searches, and how much of the scan the early
// abandon saved.
var (
	indexBuilds    = obs.GetCounter("knn.index.builds")
	indexSearches  = obs.GetCounter("knn.index.searches")
	indexAbandoned = obs.GetCounter("knn.index.points_abandoned")
	// indexRescored counts blocks whose first stride did not decide every
	// group, so that all their rows were summed (see scoreBlock). Beside
	// points/16 per search it says whether the first look still does the work.
	indexRescored = obs.GetCounter("knn.index.blocks_rescored")
)

const (
	// scoreGroup is how many candidates share one scoring pass
	// (linalg.SqDist4).
	scoreGroup = 4
	// blockCols is how many points one block holds: the unit a search visits
	// in, and the width of one block of the feature-major store, which
	// linalg.SqDistCols' AVX2 routine covers in one pass (four accumulators
	// of four lanes). It is a whole number of score groups, so a block splits
	// into groups the same way in both scorers.
	blockCols = 16
	// abandonSlack widens the early-abandon limit: a group of candidates is
	// dropped part-way through its distance sums only when every partial
	// squared sum exceeds worst²·(1+abandonSlack), worst being the current
	// kth-best distance. The sums only grow, so each final sum S exceeds it
	// too, or is NaN, and then the reported distance fl(√S) is NaN or
	// strictly greater than worst: fl(worst²) ≥ worst²·(1−u) and the product
	// by (1+abandonSlack) loses another (1−u), with u = 2⁻⁵³, so
	// S > worst²·(1+1e-9)·(1−u)² and √S > worst·(1+4e-10), which rounding to
	// nearest (relative error u) cannot bring down to worst. A dropped
	// candidate therefore could not have entered the heap under the
	// (distance, index) order, not even as an equal-distance, smaller-index
	// tie.
	abandonSlack = 1e-9
	// abandonMinWorst is the smallest kth-best distance that arms the
	// limit: below it worst² leaves the normal float64 range and the bound
	// above no longer holds. (Above ~1.3e154 worst² overflows to +Inf, which
	// no partial sum exceeds; a NaN worst fails the comparison.)
	abandonMinWorst = 1e-150
)

// IndexStats is a snapshot of an Index's usage counters.
type IndexStats struct {
	// Searches counts served queries. PointsScored totals the points they
	// offered to the scorer — every point, every search — and
	// PointsAbandoned of those were dropped part-way through their distance
	// sums (see abandonSlack).
	Searches        int64
	PointsScored    int64
	PointsAbandoned int64
}

// Index is an immutable exact k-nearest-neighbor index over one point set
// under one metric. Build with NewIndex once per model generation; all
// methods are safe for concurrent use and lock-free.
type Index struct {
	metric Distance
	points *linalg.Matrix // every reported distance comes from these rows
	// order is the row indices sorted by (first coordinate, row) under
	// cmp.Compare: NaN first, a total order, so identical inputs always build
	// identical indexes. Block b is order[b·blockCols:(b+1)·blockCols], the
	// last one possibly short.
	order []int
	// keys holds each block's leading key: the first coordinate of its first
	// row.
	keys []float64
	// blocks is the points again, in the order and shape scoreBlock reads
	// them: block by block, each feature-major (entry j·blockCols+c is
	// coordinate j of the block's c-th point). A short last block repeats its
	// last point in its spare columns — score's rule for a short group. It
	// costs the point matrix once more (0.51 MB at the stock 800 × 80) and is
	// retired with the generation. Nil under Cosine, whose distances are not
	// sums of squares, and where the vector kernels do not serve (see
	// NewIndex).
	blocks []float64

	searches  atomic.Int64
	scored    atomic.Int64
	abandoned atomic.Int64
	rescored  atomic.Int64 // blocks summed in full; not in IndexStats
}

// NewIndex builds the exact index over the rows of points under the metric.
// It never fails.
func NewIndex(points *linalg.Matrix, metric Distance) *Index {
	ix := &Index{metric: metric, points: points, order: make([]int, points.Rows)}
	for i := range ix.order {
		ix.order[i] = i
	}
	slices.SortFunc(ix.order, func(a, b int) int {
		return cmp.Or(cmp.Compare(lead(points.Row(a)), lead(points.Row(b))), cmp.Compare(a, b))
	})
	ix.keys = make([]float64, (points.Rows+blockCols-1)/blockCols)
	for b := range ix.keys {
		ix.keys[b] = lead(points.Row(ix.order[b*blockCols]))
	}
	// The blocked store pays where SqDistCols has its vector routine. Through
	// the portable loops it is a loss — scoreBlock sums every block its first
	// look leaves open over all rows, and so does up to twice the gather
	// scorer's arithmetic — so there the index keeps one layout and one
	// scorer.
	if metric == Euclidean && linalg.VectorKernels() {
		ix.pack()
	}
	indexBuilds.Inc()
	return ix
}

// lead is the sort key of a point or query: its first coordinate (0 for a
// zero-dimensional one).
func lead(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return v[0]
}

// block returns the rows of block b.
func (ix *Index) block(b int) []int {
	return ix.order[b*blockCols : min((b+1)*blockCols, len(ix.order))]
}

// pack lays the points out as Index.blocks describes.
func (ix *Index) pack() {
	dims := ix.points.Cols
	ix.blocks = make([]float64, len(ix.keys)*dims*blockCols)
	for b := range ix.keys {
		rows, blk := ix.block(b), ix.blocks[b*dims*blockCols:]
		for c := 0; c < blockCols; c++ {
			for j, x := range ix.points.Row(rows[min(c, len(rows)-1)]) {
				blk[j*blockCols+c] = x
			}
		}
	}
}

// Metric returns the distance metric the index was built for.
func (ix *Index) Metric() Distance { return ix.metric }

// Len returns the number of indexed points.
func (ix *Index) Len() int { return ix.points.Rows }

// Stats snapshots the index's usage counters.
func (ix *Index) Stats() IndexStats {
	return IndexStats{
		Searches:        ix.searches.Load(),
		PointsScored:    ix.scored.Load(),
		PointsAbandoned: ix.abandoned.Load(),
	}
}

// Nearest returns the k nearest indexed rows to q, bit-identical to
// Nearest(points, q, k, metric) on the same point set: same (distance,
// index) values in the same total order, NaN-last.
func (ix *Index) Nearest(q []float64, k int) ([]Neighbor, error) {
	defer searchSeconds.Since(time.Now())
	// The flat scan's error contract, exactly.
	switch {
	case ix.points.Rows == 0:
		return nil, ErrNoPoints
	case k <= 0:
		return nil, ErrBadK
	case len(q) != ix.points.Cols:
		return nil, fmt.Errorf("%w: query has %d dims, points have %d", ErrDimension, len(q), ix.points.Cols)
	}
	searchQueries.Inc()
	nbs, t := ix.search(q, k)
	// Counted in the index's own figures, which /v1/model reports per
	// generation, and in the process-wide knn.index.* metrics.
	indexSearches.Inc()
	ix.searches.Add(1)
	ix.scored.Add(int64(t.scored))
	ix.abandoned.Add(int64(t.abandoned))
	ix.rescored.Add(int64(t.rescored))
	indexAbandoned.Add(int64(t.abandoned))
	indexRescored.Add(int64(t.rescored))
	searchCandidates.Observe(float64(t.scored))
	return nbs, nil
}

// LeaveOneOut returns the k nearest indexed rows to row i other than row i
// itself, ascending — what Nearest(points.Row(i), k) would return had row i
// not been indexed (up to which of several equal-distance rows fill the last
// places; the distances are the same). It is a question about the point set,
// asked while a generation is being calibrated, not a served query: it moves
// no counter, here or in obs.
func (ix *Index) LeaveOneOut(i, k int) []Neighbor {
	if k <= 0 || ix.points.Rows < 2 {
		return nil
	}
	// Capped first: k above n−1 asks for every other row, and k+1 overflows.
	nbs, _ := ix.search(ix.points.Row(i), min(k, ix.points.Rows-1)+1)
	// Row i is at distance 0 from itself. Unless k+1 rows of smaller index
	// are too — then the last of them goes, and k at distance 0 remain.
	self := len(nbs) - 1
	for j, nb := range nbs {
		if nb.Index == i {
			self = j
			break
		}
	}
	return append(nbs[:self], nbs[self+1:]...)
}

// searchTally is what one search touched, for the caller to count or not.
type searchTally struct {
	scored, abandoned, rescored int
}

// search answers one validated query without counting it: every block,
// outward from the one the query's first coordinate falls in — start,
// start+1, start−1, start+2, … (Choosing the side whose nearest key is closer
// instead abandoned the same points, to a tenth of one per search, on the
// stock projections; the order cannot change the result.)
func (ix *Index) search(q []float64, k int) ([]Neighbor, searchTally) {
	s := getScan(ix.points, q, min(k, ix.points.Rows), ix.metric)
	defer putScan(s)
	start, found := slices.BinarySearchFunc(ix.keys, lead(q), cmp.Compare[float64])
	if !found && start > 0 {
		start-- // the last block that starts below the query
	}
	for d := 0; d < 2*len(ix.keys); d++ {
		b := start - d/2
		if d%2 == 1 {
			b = start + (d+1)/2
		}
		if b < 0 || b >= len(ix.keys) {
			continue
		}
		if ix.blocks != nil {
			s.scoreBlock(ix.block(b), ix.blocks[b*len(q)*blockCols:][:len(q)*blockCols])
		} else {
			s.score(ix.block(b))
		}
	}
	return s.drain(), s.searchTally
}

// pointDistance is the reference distance evaluation of the package: the
// flat scan behind the package-level Nearest calls it for every candidate,
// and the scorer calls it under Cosine. The scorer's Euclidean pass
// (linalg.SqDist4, then math.Sqrt) performs Dist's operations in Dist's
// order, so every reported distance is the identical float64 no matter which
// path produced it. qn is Norm(q), hoisted once per query (for Cosine).
func pointDistance(p, q []float64, qn float64, metric Distance) float64 {
	if metric == Cosine {
		return linalg.CosineDistanceTo(p, q, qn)
	}
	return linalg.Dist(p, q)
}

// scan is the pooled per-query state of one search: the candidate scorer
// with its bounded heap.
type scan struct {
	points *linalg.Matrix // every reported distance comes from these rows
	metric Distance
	q      []float64
	qn     float64 // Norm(q), under Cosine
	k      int
	// heap is a max-heap under the (distance, index) total order: heap[0]
	// is the current kth-best (worst retained) neighbor.
	heap []Neighbor
	// limit is the early-abandon threshold on partial squared distance sums
	// (see abandonSlack); +Inf while nothing may be abandoned — heap not yet
	// full, kth-best not a finite distance of ordinary magnitude, Cosine.
	limit float64
	searchTally
}

var scanPool = sync.Pool{New: func() any { return new(scan) }}

// getScan leases a search over points with an empty heap and nothing to
// abandon yet.
func getScan(points *linalg.Matrix, q []float64, k int, metric Distance) *scan {
	s := scanPool.Get().(*scan)
	s.points, s.metric, s.q, s.k = points, metric, q, k
	s.qn = 0
	if metric == Cosine {
		s.qn = linalg.Norm(q)
	}
	s.heap = s.heap[:0]
	s.limit = math.Inf(1)
	s.searchTally = searchTally{}
	return s
}

func putScan(s *scan) {
	s.points, s.q = nil, nil
	scanPool.Put(s)
}

// score offers the given rows to the heap, Euclidean candidates scoreGroup
// at a time.
func (s *scan) score(rows []int) {
	s.scored += len(rows)
	if s.metric == Cosine {
		for _, i := range rows {
			s.push(Neighbor{Index: i, Distance: linalg.CosineDistanceTo(s.points.Row(i), s.q, s.qn)})
		}
		return
	}
	for len(rows) > 0 {
		g := rows[:min(scoreGroup, len(rows))]
		rows = rows[len(g):]
		s.scoreGroup(g)
	}
}

// scoreGroup scores up to scoreGroup Euclidean rows in one SqDist4 pass (a
// short group repeats its last row and offers it once); a group whose
// partial sums all pass limit is abandoned unscored.
func (s *scan) scoreGroup(g []int) {
	last := len(g) - 1
	var d [scoreGroup]float64
	var ok bool
	d[0], d[1], d[2], d[3], ok = linalg.SqDist4(s.points.Row(g[0]), s.points.Row(g[min(1, last)]),
		s.points.Row(g[min(2, last)]), s.points.Row(g[last]), s.q, s.limit)
	if !ok {
		s.abandoned += len(g)
		return
	}
	for j, i := range g {
		s.push(Neighbor{Index: i, Distance: math.Sqrt(d[j])})
	}
}

// scoreBlock is score(rows) for one block of a Euclidean index, read from the
// block's feature-major copy blk: the same groups, judged in the same order
// against the same limit, offered the same distances — so the heap, scored
// and abandoned end up as score leaves them.
//
// SqDist4 drops a group at the first stride boundary where all four partial
// sums pass limit (the end of the row is one such boundary). A partial sum
// never decreases until it turns NaN, and then stays NaN. So a group whose
// four final sums all pass limit is dropped; a group with a final sum that
// is neither NaN nor past limit is not, since that sum never passed it; and
// only a group with a NaN final sum depends on where the NaN arrived. Here
// the first look covers a whole block at once — column c of sums is the sum
// over the first stride for the block's c-th point, added from zero in
// SqDist4's order — and a group it does not settle is judged on its final
// sums, which the first such group of a block fetches for the whole block in
// one more call; the groups after it are judged on those too. A group with a
// NaN final sum is handed to scoreGroup, which is SqDist4 itself — that also
// keeps the NaN's bits the flat scan's. A short group's spare columns repeat
// the block's last point, as score's g[min(j, last)] does, so "all four"
// reads the same.
func (s *scan) scoreBlock(rows []int, blk []float64) {
	s.scored += len(rows)
	dims := len(s.q)
	head := min(dims, linalg.SqDistStride)
	var sums [blockCols]float64
	linalg.SqDistCols(sums[:], &linalg.Matrix{Rows: head, Cols: blockCols, Data: blk[:head*blockCols]}, s.q[:head])
	final := head == dims // whether sums cover every row yet
	for at := 0; at < len(rows); at += scoreGroup {
		g, gs := rows[at:min(at+scoreGroup, len(rows))], sums[at:at+scoreGroup]
		if !final && !allOver(gs, s.limit) {
			linalg.SqDistCols(sums[:], &linalg.Matrix{Rows: dims, Cols: blockCols, Data: blk}, s.q)
			final = true
			s.rescored++
		}
		switch {
		case allOver(gs, s.limit):
			s.abandoned += len(g)
		case math.IsNaN(gs[0] + gs[1] + gs[2] + gs[3]):
			s.scoreGroup(g)
		default:
			for j, i := range g {
				s.push(Neighbor{Index: i, Distance: math.Sqrt(gs[j])})
			}
		}
	}
}

// allOver is SqDist4's stopping test on one group's four sums.
func allOver(sums []float64, limit float64) bool {
	return sums[0] > limit && sums[1] > limit && sums[2] > limit && sums[3] > limit
}

// push offers one scored candidate to the bounded max-heap and re-arms the
// abandon limit from the new kth-best.
func (s *scan) push(nb Neighbor) {
	h := s.heap
	if len(h) < s.k {
		h = append(h, nb)
		i := len(h) - 1
		for i > 0 {
			p := (i - 1) / 2
			if !less(h[p], h[i]) {
				break
			}
			h[p], h[i] = h[i], h[p]
			i = p
		}
		s.heap = h
	} else {
		if !less(nb, h[0]) {
			return
		}
		h[0] = nb
		siftDown(h)
	}
	if len(h) == s.k && s.metric == Euclidean {
		if w := h[0].Distance; w >= abandonMinWorst {
			s.limit = w * w * (1 + abandonSlack)
		}
	}
}

// siftDown restores the max-heap order after h[0] was replaced.
func siftDown(h []Neighbor) {
	i := 0
	for {
		l, r, top := 2*i+1, 2*i+2, i
		if l < len(h) && less(h[top], h[l]) {
			top = l
		}
		if r < len(h) && less(h[top], h[r]) {
			top = r
		}
		if top == i {
			return
		}
		h[i], h[top] = h[top], h[i]
		i = top
	}
}

// drain empties the heap into a fresh slice in ascending (distance, index)
// order: the search result.
func (s *scan) drain() []Neighbor {
	out := make([]Neighbor, len(s.heap))
	for h := s.heap; len(h) > 0; h = h[:len(h)-1] {
		out[len(h)-1] = h[0]
		h[0] = h[len(h)-1]
		siftDown(h[:len(h)-1])
	}
	return out
}
