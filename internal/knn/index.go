// KD-tree index over the projected training points. The paper's Fig. 7
// prediction step is a kNN lookup in the KCCA query projection; the flat
// scan in Nearest is O(N·rank) per query, which grows linearly with
// the training window. An Index is built once per model generation at
// retrain-install time, is immutable afterwards (so serving reads are
// lock-free, matching the atomic hot-swap discipline of
// core.SlidingPredictor and the shard slots), and answers the same queries
// in roughly O(log N) on a low-dimensional cloud (the paper's ≤15
// dimensions). On the 80-dimensional cloud of a stock daemon the tree still
// offers about five of every six points to the scorer; there the saving
// comes from the scorer, which takes candidates four at a time and abandons
// a group part-way once none of it can enter the result (abandonSlack), and
// from what memory it reads to do so. Where linalg's vector kernels serve, a
// Euclidean tree keeps a second copy of its points, packed once per
// generation: leaf by leaf in tree order, feature-major, in blocks of
// blockCols points (Index.blocks). Scoring a leaf (scoreLeaf) is then one
// linalg.SqDistCols call over the first linalg.SqDistStride rows of each
// block — the first look SqDist4 would take at every group of the block,
// from one contiguous 2 KB read instead of four gathered rows per group —
// and, only for a block some group of which outlives that look, a second
// call over all of its rows. The sums are the gather scorer's bit for bit and
// a group is dropped exactly when the gather scorer would drop it (see
// scoreLeaf), so neighbours, distances and the points_visited /
// points_abandoned counters do not depend on which scorer ran. The gather
// scorer (score) still serves stragglers, Cosine, every flat scan, and whole
// trees on hosts without the vector kernels (see build).
//
// The index is EXACT, not approximate: for every supported input it returns
// bit-identical (distance, index) neighbor sets to the flat scan, including
// the total (distance, index) tie-break order with NaN-last semantics. That
// guarantee rests on three design rules:
//
//  1. Candidate distances are computed on the same original rows by the flat
//     scan's operations in the flat scan's order — linalg.SqDist4 then
//     math.Sqrt is linalg.Dist four candidates at a time; for Cosine, the
//     unit-normalized copies steer the tree descent but never produce a
//     reported distance — so every distance the caller sees is the same
//     float64 the scan would produce.
//  2. Pruning bounds are slackened by margins (indexSlackRel/indexSlackAbs)
//     orders of magnitude larger than the worst-case floating-point error of
//     a distance evaluation at the supported dimensionality, so a subtree is
//     only skipped when no point in it can enter the result under the total
//     order — equal-distance points are never pruned (strict inequality), so
//     index tie-breaks survive.
//  3. Points the tree geometry cannot represent (non-finite or huge
//     coordinates, zero-norm rows under Cosine) are kept out of the tree and
//     scanned linearly as stragglers, with exactly the flat scan's distance
//     calls; queries the tree cannot bound (non-finite coordinates, zero-norm
//     under Cosine) fall back to the flat scan wholesale.
//
// Fallback conditions (the whole index degrades to the flat scan, still
// exact): fewer than MinPoints rows, more than maxIndexDims columns, zero
// columns, or a per-query condition above. knn.index.* obs metrics count
// builds, searches, fallbacks, nodes/points visited, points abandoned and
// blocks rescored.
package knn

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/linalg"
	"repro/internal/obs"
)

// Index metrics: builds and their node counts, tree searches versus
// flat-scan fallbacks, and how much of the tree each search actually
// touched (the sub-linearity headline).
var (
	indexBuilds       = obs.GetCounter("knn.index.builds")
	indexSearches     = obs.GetCounter("knn.index.searches")
	indexFallbacks    = obs.GetCounter("knn.index.fallbacks")
	indexNodes        = obs.GetHistogram("knn.index.nodes")
	indexNodesVisited = obs.GetHistogram("knn.index.nodes_visited")
	indexPointsScored = obs.GetHistogram("knn.index.points_visited")
	indexAbandoned    = obs.GetCounter("knn.index.points_abandoned")
	// indexRescored counts leaf blocks whose first stride did not decide
	// every group, so that all their rows were summed (see scoreLeaf). Beside
	// points_visited/16 it says whether the first look still does the work.
	indexRescored = obs.GetCounter("knn.index.blocks_rescored")
)

const (
	// DefaultIndexMinPoints is the training-set size below which NewIndex
	// does not build a tree: the flat scan over a few cache lines beats tree
	// traversal overhead there, and correctness is identical either way.
	DefaultIndexMinPoints = 64
	// defaultLeafSize is the leaf bucket size: leaves are scanned linearly,
	// so a handful of points per leaf keeps the tree shallow and the scans
	// cache-friendly.
	defaultLeafSize = 16
	// maxIndexDims bounds the dimensionality the exactness slack margins are
	// proven for (the floating-point error of a d-dimensional distance grows
	// with d; the slacks below cover d ≤ 512 with >100× headroom — KCCA
	// projections are ≤80). Wider point sets fall back to the flat scan.
	maxIndexDims = 512
	// maxIndexCoord gates coordinates admitted into the tree. Within this
	// magnitude, squared differences and dot products of up to maxIndexDims
	// terms cannot overflow to Inf or NaN, so every in-tree distance is a
	// finite float64 and the pruning arithmetic is total. Rows beyond it are
	// stragglers; queries beyond it fall back to the flat scan.
	maxIndexCoord = 1e150

	// indexSlackRel shrinks the axis-gap lower bound before comparing it to
	// the current kth-best distance: prune only when gap·(1−slack) still
	// exceeds the bound. A d-dimensional Euclidean distance evaluation has
	// relative rounding error below (d/2+2)·2⁻⁵³ ≈ 3e-14 at d = 512; 1e-9 is
	// five orders of magnitude more conservative, at a pruning-power cost
	// that is unmeasurable.
	indexSlackRel = 1e-9
	// indexSlackAbs pads the Cosine pruning bound. Unit-vector coordinates
	// are ≤1 in magnitude, so normalization and distance rounding errors are
	// absolute at eps scale (≈(d+6)·2⁻⁵³ ≤ 1.2e-13 at d = 512); the 1e-9 gap
	// haircut plus this additive pad dominate them by >10³.
	indexSlackAbs = 1e-12
	// indexSlackUnderflow pads the Euclidean pruning bound against gradual
	// underflow: for coordinate differences below ~1.5e-154 the squared
	// terms inside Dist flush to subnormals or zero, so the computed
	// distance can sit up to √(d·minSubnormal) ≈ 3.5e-153 (d = 512) BELOW
	// the axis gap — a purely relative slack misses that (found by
	// FuzzKDTree: two subnormal points both at computed distance 0 with a
	// nonzero gap between them, pruning the lower-index tie). 1e-140 covers
	// the deflation with 10¹² headroom and is far below any distance a
	// caller could tell apart from zero.
	indexSlackUnderflow = 1e-140

	// scoreGroup is how many candidates share one scoring pass
	// (linalg.SqDist4).
	scoreGroup = 4
	// blockCols is how many points one block of the feature-major store
	// holds side by side: the width linalg.SqDistCols' AVX2 routine covers in
	// one pass (four accumulators of four lanes), and a whole number of
	// score groups, so a leaf splits into groups the same way in both scorers.
	blockCols = 16
	// abandonSlack widens the early-abandon limit: a group of candidates is
	// dropped part-way through its distance sums only when every partial
	// squared sum exceeds worst²·(1+abandonSlack), worst being the current
	// kth-best distance. The sums only grow, so each final sum S exceeds it
	// too, and then the reported distance fl(√S) is strictly greater than
	// worst: fl(worst²) ≥ worst²·(1−u) and the product by (1+abandonSlack)
	// loses another (1−u), with u = 2⁻⁵³, so S > worst²·(1+1e-9)·(1−u)² and
	// √S > worst·(1+4e-10), which rounding to nearest (relative error u)
	// cannot bring down to worst. A dropped candidate therefore could not
	// have entered the heap under the (distance, index) order, not even as
	// an equal-distance, smaller-index tie.
	abandonSlack = 1e-9
	// abandonMinWorst is the smallest kth-best distance that arms the
	// limit: below it worst² leaves the normal float64 range and the bound
	// above no longer holds. (Above ~1.3e154 worst² overflows to +Inf, which
	// no partial sum exceeds; a NaN worst fails the comparison.)
	abandonMinWorst = 1e-150
)

// IndexConfig tunes index construction. The zero value selects defaults.
type IndexConfig struct {
	// MinPoints is the smallest point count for which a tree is built;
	// smaller sets stay on the flat scan (0 = DefaultIndexMinPoints).
	MinPoints int
	// LeafSize is the leaf bucket size (0 = 16).
	LeafSize int
}

// IndexStats is a snapshot of an Index's shape and usage counters.
type IndexStats struct {
	// Flat reports a whole-index fallback: no tree was built and every
	// search runs the flat scan. FlatReason says why.
	Flat       bool
	FlatReason string
	// Points is the total candidate count; TreePoints of them are in the
	// tree and Stragglers are scanned linearly alongside it.
	Points     int
	TreePoints int
	Stragglers int
	// Nodes and Leaves describe the built tree (0 when Flat).
	Nodes  int
	Leaves int
	// MinPoints and LeafSize echo the resolved configuration.
	MinPoints int
	LeafSize  int
	// Searches counts tree-served queries; FlatSearches counts queries this
	// index answered with the flat scan (whole-index or per-query fallback).
	Searches     int64
	FlatSearches int64
	// NodesVisited and PointsScored total the tree nodes descended into and
	// candidate points offered for scoring across all tree searches;
	// PointsAbandoned of those were dropped part-way through their distance
	// sums (see abandonSlack).
	NodesVisited    int64
	PointsScored    int64
	PointsAbandoned int64
}

// node is one KD-tree node. Leaves (axis < 0) own order[lo:hi]; internal
// nodes split on axis at value split, with the left child holding
// coordinates ≤ split and the right child ≥ split. A leaf of a Euclidean
// tree also owns the ⌈(hi−lo)/blockCols⌉ blocks of Index.blocks from block on.
type node struct {
	split       float64
	axis        int32
	left, right int32
	lo, hi      int32
	block       int32
}

// Index is an immutable exact k-nearest-neighbor index over one point set
// under one metric. Build with NewIndex once per model generation; all
// methods are safe for concurrent use and lock-free.
type Index struct {
	metric Distance
	points *linalg.Matrix // original rows: distance evaluation + fallback
	// coords is the geometry the tree descends: points itself for
	// Euclidean, unit-normalized copies for Cosine (where the cosine
	// distance of unit vectors is ‖â−b̂‖²/2, making axis gaps a valid
	// lower bound).
	coords     *linalg.Matrix
	nodes      []node
	order      []int // permutation of in-tree row indices; leaves own ranges
	stragglers []int // rows excluded from the tree, scanned linearly
	// blocks is the Euclidean tree's points again, in the order and shape the
	// scorer reads them: for each leaf in node order, its rows order[lo:hi]
	// in blocks of blockCols, each block feature-major (entry j·blockCols+c
	// is coordinate j of the block's c-th point). A short block repeats the
	// leaf's last point in its spare columns — score's rule for a short
	// group. It costs blockCols/(mean leaf fill) times the point matrix
	// (0.66 MB beside 0.51 MB at the stock 800 × 80) and is retired with the
	// generation. Nil under Cosine, whose distances are not sums of squares,
	// and where the vector kernels do not serve (see build).
	blocks     []float64
	leaves     int
	flatReason string // non-empty → whole-index flat fallback
	minPoints  int
	leafSize   int

	searches     atomic.Int64
	flatSearches atomic.Int64
	nodesVisited atomic.Int64
	pointsScored atomic.Int64
	abandoned    atomic.Int64
	rescored     atomic.Int64 // blocks summed in full; not in IndexStats
}

// NewIndex builds an exact KD-tree index over the rows of points under the
// metric, with default configuration. It never fails: inputs the tree
// cannot serve yield an index that answers every query with the flat scan.
func NewIndex(points *linalg.Matrix, metric Distance) *Index {
	return NewIndexWith(points, metric, IndexConfig{})
}

// NewIndexWith is NewIndex with explicit configuration.
func NewIndexWith(points *linalg.Matrix, metric Distance, cfg IndexConfig) *Index {
	if cfg.MinPoints <= 0 {
		cfg.MinPoints = DefaultIndexMinPoints
	}
	if cfg.LeafSize <= 0 {
		cfg.LeafSize = defaultLeafSize
	}
	ix := &Index{
		metric:    metric,
		points:    points,
		minPoints: cfg.MinPoints,
		leafSize:  cfg.LeafSize,
	}
	switch {
	case points.Rows < cfg.MinPoints:
		ix.flatReason = fmt.Sprintf("fewer than %d points", cfg.MinPoints)
	case points.Cols == 0:
		ix.flatReason = "zero-dimensional points"
	case points.Cols > maxIndexDims:
		ix.flatReason = fmt.Sprintf("more than %d dimensions", maxIndexDims)
	}
	if ix.flatReason != "" {
		return ix
	}
	ix.build()
	indexBuilds.Inc()
	indexNodes.Observe(float64(len(ix.nodes)))
	return ix
}

// treeRow reports whether row i of points can live in the tree: all
// coordinates finite and within the overflow-safe magnitude, and (for
// Cosine) a usable positive norm.
func (ix *Index) treeRow(i int) bool {
	if !coordsUsable(ix.points.Row(i)) {
		return false
	}
	if ix.metric == Cosine {
		return linalg.Norm(ix.points.Row(i)) > 0
	}
	return true
}

// coordsUsable reports whether every coordinate is finite and within
// maxIndexCoord (NaN fails the comparison, so it is rejected too).
func coordsUsable(v []float64) bool {
	for _, x := range v {
		if !(math.Abs(x) <= maxIndexCoord) {
			return false
		}
	}
	return true
}

// build partitions rows into tree points and stragglers, materializes the
// tree geometry, and constructs the node array.
func (ix *Index) build() {
	n := ix.points.Rows
	ix.order = make([]int, 0, n)
	for i := 0; i < n; i++ {
		if ix.treeRow(i) {
			ix.order = append(ix.order, i)
		} else {
			ix.stragglers = append(ix.stragglers, i)
		}
	}
	if len(ix.order) == 0 {
		return // every search scans the stragglers (= the whole set)
	}
	if ix.metric == Cosine {
		// Unit-normalized copies: p̃[j] = p[j]/‖p‖, built with the same Norm
		// the distance function uses. These steer descent and bound pruning
		// only — reported distances always come from the original rows.
		ix.coords = linalg.NewMatrix(n, ix.points.Cols)
		for _, i := range ix.order {
			row, norm := ix.points.Row(i), linalg.Norm(ix.points.Row(i))
			out := ix.coords.Row(i)
			for j, x := range row {
				out[j] = x / norm
			}
		}
	} else {
		ix.coords = ix.points
	}
	ix.nodes = make([]node, 0, 2*len(ix.order)/ix.leafSize+1)
	ix.buildNode(0, len(ix.order))
	// The blocked store pays where SqDistCols has its vector routine. Through
	// the portable loops it is a loss — a stock search measured 12.5 µs with
	// the gather scorer and 16.5 µs with scoreLeaf, which sums every block its
	// first look leaves open over all rows and so does twice the gather
	// scorer's arithmetic — so there the tree keeps one layout and one scorer.
	if ix.metric == Euclidean && linalg.VectorKernels() {
		ix.packLeaves()
	}
}

// packLeaves lays the tree's points out as Index.blocks describes.
func (ix *Index) packLeaves() {
	dims, nblocks := ix.points.Cols, 0
	for i := range ix.nodes {
		if nd := &ix.nodes[i]; nd.axis < 0 {
			nd.block = int32(nblocks)
			nblocks += (int(nd.hi-nd.lo) + blockCols - 1) / blockCols
		}
	}
	ix.blocks = make([]float64, nblocks*dims*blockCols)
	for i := range ix.nodes {
		nd := &ix.nodes[i]
		if nd.axis >= 0 {
			continue
		}
		rows := ix.order[nd.lo:nd.hi]
		blk := ix.blocks[int(nd.block)*dims*blockCols:]
		for at := 0; at < len(rows); at += blockCols {
			for c := 0; c < blockCols; c++ {
				for j, x := range ix.points.Row(rows[min(at+c, len(rows)-1)]) {
					blk[j*blockCols+c] = x
				}
			}
			blk = blk[dims*blockCols:]
		}
	}
}

// buildNode builds the subtree over order[lo:hi] and returns its node
// index. Splits choose the axis of greatest spread (ties to the lowest
// axis) and cut at the median under the deterministic (coordinate, row)
// order, so identical inputs always build identical trees.
func (ix *Index) buildNode(lo, hi int) int32 {
	id := int32(len(ix.nodes))
	if hi-lo <= ix.leafSize {
		ix.nodes = append(ix.nodes, node{axis: -1, lo: int32(lo), hi: int32(hi)})
		ix.leaves++
		return id
	}
	axis := 0
	bestSpread := -1.0
	for a := 0; a < ix.coords.Cols; a++ {
		min, max := math.Inf(1), math.Inf(-1)
		for _, i := range ix.order[lo:hi] {
			c := ix.coords.Row(i)[a]
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		if spread := max - min; spread > bestSpread {
			bestSpread, axis = spread, a
		}
	}
	seg := ix.order[lo:hi]
	sort.Slice(seg, func(i, j int) bool {
		ci, cj := ix.coords.Row(seg[i])[axis], ix.coords.Row(seg[j])[axis]
		if ci != cj {
			return ci < cj
		}
		return seg[i] < seg[j]
	})
	mid := (lo + hi) / 2
	ix.nodes = append(ix.nodes, node{axis: int32(axis), split: ix.coords.Row(ix.order[mid])[axis]})
	left := ix.buildNode(lo, mid)
	right := ix.buildNode(mid, hi)
	ix.nodes[id].left, ix.nodes[id].right = left, right
	return id
}

// Metric returns the distance metric the index was built for.
func (ix *Index) Metric() Distance { return ix.metric }

// Len returns the number of indexed points (tree points + stragglers).
func (ix *Index) Len() int { return ix.points.Rows }

// Flat reports whether the whole index is a flat-scan fallback.
func (ix *Index) Flat() bool { return ix.flatReason != "" || ix.nodes == nil }

// Stats snapshots the index shape and usage counters.
func (ix *Index) Stats() IndexStats {
	reason := ix.flatReason
	if reason == "" && ix.nodes == nil {
		reason = "no tree-representable points"
	}
	return IndexStats{
		Flat:            ix.Flat(),
		FlatReason:      reason,
		Points:          ix.points.Rows,
		TreePoints:      len(ix.order),
		Stragglers:      len(ix.stragglers),
		Nodes:           len(ix.nodes),
		Leaves:          ix.leaves,
		MinPoints:       ix.minPoints,
		LeafSize:        ix.leafSize,
		Searches:        ix.searches.Load(),
		FlatSearches:    ix.flatSearches.Load(),
		NodesVisited:    ix.nodesVisited.Load(),
		PointsScored:    ix.pointsScored.Load(),
		PointsAbandoned: ix.abandoned.Load(),
	}
}

// Nearest returns the k nearest indexed rows to q, bit-identical to
// Nearest(points, q, k, metric) on the same point set: same (distance,
// index) values in the same total order, NaN-last.
func (ix *Index) Nearest(q []float64, k int) ([]Neighbor, error) {
	defer obs.Span("knn.search")()
	if err := ix.validate(len(q), k); err != nil {
		return nil, err
	}
	searchQueries.Inc()
	return ix.nearestOne(q, k), nil
}

// validate mirrors the flat scan's error contract exactly.
func (ix *Index) validate(qDims, k int) error {
	if ix.points.Rows == 0 {
		return ErrNoPoints
	}
	if k <= 0 {
		return ErrBadK
	}
	if qDims != ix.points.Cols {
		return fmt.Errorf("%w: query has %d dims, points have %d", ErrDimension, qDims, ix.points.Cols)
	}
	return nil
}

// queryUsable reports whether the tree can bound this query: coordinates
// finite and within magnitude, plus (Cosine) a positive norm. qn is the
// query norm when the metric is Cosine.
func (ix *Index) queryUsable(q []float64, qn float64) bool {
	if !coordsUsable(q) {
		return false
	}
	if ix.metric == Cosine {
		return qn > 0
	}
	return true
}

// nearestOne answers one validated query (k already known positive, dims
// matching) and counts it: in the index's own figures, which /v1/model
// reports per generation, and in the process-wide knn.index.* metrics.
func (ix *Index) nearestOne(q []float64, k int) []Neighbor {
	nbs, t := ix.search(q, k)
	if t.flat {
		indexFallbacks.Inc()
		ix.flatSearches.Add(1)
		searchCandidates.Observe(float64(ix.points.Rows))
		return nbs
	}
	indexSearches.Inc()
	ix.searches.Add(1)
	ix.nodesVisited.Add(int64(t.nodes))
	ix.pointsScored.Add(int64(t.scored))
	ix.abandoned.Add(int64(t.abandoned))
	ix.rescored.Add(int64(t.rescored))
	indexNodesVisited.Observe(float64(t.nodes))
	indexPointsScored.Observe(float64(t.scored))
	indexAbandoned.Add(int64(t.abandoned))
	indexRescored.Add(int64(t.rescored))
	searchCandidates.Observe(float64(t.scored + len(ix.stragglers)))
	return nbs
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
	nbs, _ := ix.search(ix.points.Row(i), k+1)
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
	flat                               bool // answered by the flat scan
	nodes, scored, abandoned, rescored int
}

// search answers one validated query without counting it. It clamps k, picks
// tree or fallback, and merges stragglers.
func (ix *Index) search(q []float64, k int) ([]Neighbor, searchTally) {
	n := ix.points.Rows
	if k > n {
		k = n
	}
	var qn float64
	if ix.metric == Cosine {
		qn = linalg.Norm(q)
	}
	if ix.nodes == nil || !ix.queryUsable(q, qn) {
		return scanNearest(ix.points, q, qn, k, ix.metric), searchTally{flat: true}
	}

	s := getTreeSearch(ix.points, q, qn, k, ix.metric)
	defer putTreeSearch(s)
	s.ix = ix
	// Descend in the geometry the tree was built over: unit-normalized
	// under Cosine.
	s.tq = append(s.tq[:0], q...)
	if ix.metric == Cosine {
		for j := range s.tq {
			s.tq[j] /= qn
		}
	}
	s.walk(0)
	t := s.searchTally // what the tree offered; the stragglers below are no part of it

	// Stragglers were never in the tree: offer them to the same heap, scored
	// by the same calls.
	s.score(ix.stragglers)
	return s.drain(), t
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

// scanNearest is the serial flat scan: offer every row to a k-bounded heap
// under the total (distance, index) order and return the k best. It is the
// kernel behind every Index fallback.
func scanNearest(points *linalg.Matrix, q []float64, qn float64, k int, metric Distance) []Neighbor {
	s := getTreeSearch(points, q, qn, k, metric)
	defer putTreeSearch(s)
	var rows [scoreGroup]int
	for i := 0; i < points.Rows; i += scoreGroup {
		g := rows[:min(scoreGroup, points.Rows-i)]
		for j := range g {
			g[j] = i + j
		}
		s.score(g)
	}
	return s.drain()
}

// treeSearch is the pooled per-query state of one search: the candidate
// scorer with its bounded heap, and for tree searches the descent state.
type treeSearch struct {
	points *linalg.Matrix // original rows: every reported distance comes from these
	metric Distance
	q      []float64 // original query (distance evaluation)
	qn     float64
	k      int
	// heap is a max-heap under the (distance, index) total order: heap[0]
	// is the current kth-best (worst retained) neighbor.
	heap []Neighbor
	// limit is the early-abandon threshold on partial squared distance sums
	// (see abandonSlack); +Inf while nothing may be abandoned — heap not yet
	// full, kth-best not a finite distance of ordinary magnitude, Cosine.
	limit float64

	ix          *Index    // tree searches only
	tq          []float64 // tree-space query (normalized under Cosine)
	searchTally           // what walk has touched so far
}

var treeSearchPool = sync.Pool{New: func() any { return new(treeSearch) }}

// getTreeSearch leases a search over points with an empty heap and nothing
// to abandon yet.
func getTreeSearch(points *linalg.Matrix, q []float64, qn float64, k int, metric Distance) *treeSearch {
	s := treeSearchPool.Get().(*treeSearch)
	s.points, s.metric, s.q, s.qn, s.k = points, metric, q, qn, k
	s.heap = s.heap[:0]
	s.limit = math.Inf(1)
	s.searchTally = searchTally{}
	return s
}

func putTreeSearch(s *treeSearch) {
	s.ix, s.points, s.q = nil, nil, nil
	treeSearchPool.Put(s)
}

// walk descends the subtree at node ni, nearer child first, pruning the
// farther child only when the slackened axis gap proves no point beyond it
// can enter the heap.
func (s *treeSearch) walk(ni int32) {
	nd := &s.ix.nodes[ni]
	s.nodes++
	if nd.axis < 0 {
		if s.ix.blocks != nil {
			s.scoreLeaf(nd)
		} else {
			s.score(s.ix.order[nd.lo:nd.hi])
		}
		return
	}
	diff := s.tq[nd.axis] - nd.split
	near, far := nd.left, nd.right
	if diff >= 0 {
		near, far = nd.right, nd.left
	}
	s.walk(near)
	if !s.prune(math.Abs(diff)) {
		s.walk(far)
	}
}

// prune reports whether the far child behind an axis gap of gap can be
// skipped. It must never return true when any point beyond the gap could
// displace the current kth-best under the total order — hence the strict
// inequalities (equal-distance, smaller-index candidates stay reachable)
// and the slack margins absorbing floating-point rounding (see the package
// comment on exactness).
func (s *treeSearch) prune(gap float64) bool {
	if len(s.heap) < s.k {
		return false
	}
	worst := s.heap[0].Distance
	if s.metric == Cosine {
		// Unit vectors: cosine distance = ‖â−b̂‖²/2 ≥ gap²/2.
		g := gap - indexSlackRel
		return g > 0 && 0.5*g*g > worst*(1+indexSlackRel)+indexSlackAbs
	}
	return gap*(1-indexSlackRel)-indexSlackUnderflow > worst
}

// score offers the given rows to the heap. Euclidean candidates are scored
// scoreGroup at a time (a short last group repeats its last row and offers
// it once); a group whose partial sums all pass limit is abandoned unscored.
func (s *treeSearch) score(rows []int) {
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
		last := len(g) - 1
		var d [scoreGroup]float64
		var ok bool
		d[0], d[1], d[2], d[3], ok = linalg.SqDist4(s.points.Row(g[0]), s.points.Row(g[min(1, last)]),
			s.points.Row(g[min(2, last)]), s.points.Row(g[last]), s.q, s.limit)
		if !ok {
			s.abandoned += len(g)
			continue
		}
		for j, i := range g {
			s.push(Neighbor{Index: i, Distance: math.Sqrt(d[j])})
		}
	}
}

// scoreLeaf is score(order[nd.lo:nd.hi]) for a leaf of a Euclidean tree, read
// from the leaf's feature-major blocks: the same groups, judged in the same
// order against the same limit, offered the same distances — so the heap,
// scored and abandoned end up as score leaves them.
//
// SqDist4 drops a group at the first stride boundary where all four partial
// sums pass limit (the end of the row is one such boundary). The partial sums
// of in-tree points are finite and never decrease, so that is to say: it
// drops the group if and only if all four final sums pass limit. Here the
// first look covers a whole block at once — column c of sums is the sum over
// the first stride for the block's c-th point, added from zero in SqDist4's
// order — and a group it does not settle is judged on its final sums, which
// the first such group of a block fetches for the whole block in one more
// call; the groups after it are judged on those too (sums that pass limit
// after one stride pass it at the end). A short group's spare columns repeat
// the leaf's last point, as score's g[min(j, last)] does, so "all four" reads
// the same.
func (s *treeSearch) scoreLeaf(nd *node) {
	rows := s.ix.order[nd.lo:nd.hi]
	s.scored += len(rows)
	dims := len(s.q)
	head := min(dims, linalg.SqDistStride)
	blk := s.ix.blocks[int(nd.block)*dims*blockCols:]
	for ; len(rows) > 0; rows, blk = rows[min(blockCols, len(rows)):], blk[dims*blockCols:] {
		var sums [blockCols]float64
		linalg.SqDistCols(sums[:], &linalg.Matrix{Rows: head, Cols: blockCols, Data: blk[:head*blockCols]}, s.q[:head])
		final := head == dims // whether sums cover every row yet
		for at := 0; at < min(blockCols, len(rows)); at += scoreGroup {
			g := rows[at:min(at+scoreGroup, len(rows))]
			if !final && !allOver(sums[at:at+scoreGroup], s.limit) {
				linalg.SqDistCols(sums[:], &linalg.Matrix{Rows: dims, Cols: blockCols, Data: blk[:dims*blockCols]}, s.q)
				final = true
				s.rescored++
			}
			if allOver(sums[at:at+scoreGroup], s.limit) {
				s.abandoned += len(g)
				continue
			}
			for j, i := range g {
				s.push(Neighbor{Index: i, Distance: math.Sqrt(sums[at+j])})
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
func (s *treeSearch) push(nb Neighbor) {
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
func (s *treeSearch) drain() []Neighbor {
	out := make([]Neighbor, len(s.heap))
	for h := s.heap; len(h) > 0; h = h[:len(h)-1] {
		out[len(h)-1] = h[0]
		h[0] = h[len(h)-1]
		siftDown(h[:len(h)-1])
	}
	return out
}
