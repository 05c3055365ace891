// Package knn implements the nearest-neighbor prediction step of the
// paper's Fig. 7: given a new query's coordinates in the KCCA query
// projection, find its k nearest training neighbors there and combine
// their raw performance vectors into a prediction. The paper's three
// design questions — distance metric (Table I), neighbor count (Table II),
// and neighbor weighting (Table III) — are all first-class options here.
package knn

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// Search metrics: every Nearest/Search call counts its queries and observes
// how many candidate points each query was ranked against.
var (
	searchQueries    = obs.GetCounter("knn.search.queries")
	searchCandidates = obs.GetHistogram("knn.search.candidates")
)

// Sentinel errors, for errors.Is branching by callers (core wraps these,
// and the serving layer maps them to HTTP status codes).
var (
	// ErrNoPoints means the candidate set was empty.
	ErrNoPoints = errors.New("knn: no points")
	// ErrBadK means the requested neighbor count was not positive.
	ErrBadK = errors.New("knn: nonpositive k")
	// ErrDimension means query and point dimensionalities differ, or the
	// point and value matrices disagree on row count.
	ErrDimension = errors.New("knn: dimension mismatch")
)

// Distance selects the neighbor distance metric.
type Distance int

const (
	// Euclidean distance won in the paper's Table I.
	Euclidean Distance = iota
	// Cosine distance captures direction-wise nearness.
	Cosine
)

func (d Distance) String() string {
	if d == Cosine {
		return "cosine"
	}
	return "euclidean"
}

// Weighting selects how neighbor performance vectors are combined.
type Weighting int

const (
	// EqualWeight averages all neighbors equally — the paper's choice.
	EqualWeight Weighting = iota
	// RankWeight weights neighbors by nearness rank, k:(k-1):…:1 for any k
	// (3:2:1 at the paper's k = 3), normalized to sum to 1 by Combine.
	RankWeight
	// DistanceWeight weights neighbors by inverse distance.
	DistanceWeight
)

func (w Weighting) String() string {
	switch w {
	case RankWeight:
		return "rank(3:2:1)"
	case DistanceWeight:
		return "inverse-distance"
	default:
		return "equal"
	}
}

// Neighbor is one nearest neighbor with its index and distance.
type Neighbor struct {
	Index    int
	Distance float64
}

// neighborSlice implements sort.Interface under the canonical (distance,
// index) order. Sorting through a *neighborSlice from the scratch pool keeps
// the sort allocation-free (a pointer fits the interface word; sort.Slice
// would allocate its closure and reflect swapper on every call).
type neighborSlice []Neighbor

func (s *neighborSlice) Len() int           { return len(*s) }
func (s *neighborSlice) Less(i, j int) bool { return less((*s)[i], (*s)[j]) }
func (s *neighborSlice) Swap(i, j int)      { (*s)[i], (*s)[j] = (*s)[j], (*s)[i] }

// neighborPool recycles the n-sized candidate rankings built by Nearest.
// Ranking n candidates by a full sort needs an n-entry scratch slice that
// would otherwise be allocated (and become garbage) on every call, ~64 KiB
// at n = 4000. Only the k winners are copied out. (Search and Index keep a
// k-bounded heap instead and need no such buffer.)
var neighborPool = sync.Pool{New: func() any { return new(neighborSlice) }}

func getNeighbors(n int) *neighborSlice {
	s := neighborPool.Get().(*neighborSlice)
	if cap(*s) < n {
		*s = make(neighborSlice, n)
	}
	*s = (*s)[:n]
	return s
}

func putNeighbors(s *neighborSlice) { neighborPool.Put(s) }

// Options configures prediction.
type Options struct {
	K         int
	Distance  Distance
	Weighting Weighting
}

// DefaultOptions returns the paper's final choices: k = 3, Euclidean
// distance, equal weighting.
func DefaultOptions() Options {
	return Options{K: 3, Distance: Euclidean, Weighting: EqualWeight}
}

// Nearest returns the k nearest rows of points to q under the metric,
// sorted by ascending (distance, index). It is the package's reference
// implementation — one pointDistance per row, then a full sort — which the
// oracle suite holds Search and Index to, bit for bit. The index tie-break
// is load-bearing: equal-distance neighbors (duplicated training rows are
// common in template workloads) must order identically no matter how the
// distance computation was partitioned, or parallel runs could silently
// reorder predictions under weighted combination.
func Nearest(points *linalg.Matrix, q []float64, k int, metric Distance) ([]Neighbor, error) {
	defer obs.Span("knn.search")()
	n := points.Rows
	if n == 0 {
		return nil, ErrNoPoints
	}
	if k <= 0 {
		return nil, ErrBadK
	}
	if len(q) != points.Cols {
		return nil, fmt.Errorf("%w: query has %d dims, points have %d", ErrDimension, len(q), points.Cols)
	}
	if k > n {
		k = n
	}
	searchQueries.Inc()
	searchCandidates.Observe(float64(n))
	scratch := getNeighbors(n)
	defer putNeighbors(scratch)
	all := *scratch
	// The query norm is hoisted once per query: under Cosine the flat scan
	// used to recompute Norm(q) for every candidate row, an O(N·d) tax on
	// top of the O(N·d) distances themselves. CosineDistanceTo runs the
	// identical operations on the precomputed value, so results are
	// bit-identical.
	var qn float64
	if metric == Cosine {
		qn = linalg.Norm(q)
	}
	// Distance computation fans out across the worker pool; each index is
	// written by exactly one worker, so the slice contents match the serial
	// loop exactly and the sort below sees identical input.
	parallel.For(n, parallel.GrainFor(points.Cols, 1<<14), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			all[i] = Neighbor{Index: i, Distance: pointDistance(points.Row(i), q, qn, metric)}
		}
	})
	sort.Sort(scratch)
	return append(make([]Neighbor, 0, k), all[:k]...), nil
}

// less is the total order on neighbors: ascending distance, then ascending
// index. NaN distances sort last so poisoned rows never shadow real
// neighbors; among themselves NaN entries also break ties by index, so the
// order is total even on all-NaN tails (sort.Sort is unstable — without the
// index tie-break, two NaN rows could come back in either order, and the
// tree and flat paths could then legally disagree).
func less(a, b Neighbor) bool {
	an, bn := math.IsNaN(a.Distance), math.IsNaN(b.Distance)
	if an != bn {
		return bn // the non-NaN side sorts first
	}
	if !an && a.Distance != b.Distance {
		return a.Distance < b.Distance
	}
	return a.Index < b.Index
}

// Search answers a batch of queries at once: result row i holds the k
// nearest neighbors of queries.Row(i), each sorted by ascending
// (distance, index) exactly as Nearest returns them. Queries fan out across
// the worker pool (each query's own distance pass stays serial to avoid
// oversubscribing it); results are positionally identical to calling
// Nearest in a loop.
func Search(points, queries *linalg.Matrix, k int, metric Distance) ([][]Neighbor, error) {
	defer obs.Span("knn.search")()
	if queries.Cols != points.Cols {
		return nil, fmt.Errorf("%w: queries have %d dims, points have %d", ErrDimension, queries.Cols, points.Cols)
	}
	n := points.Rows
	if n == 0 {
		return nil, ErrNoPoints
	}
	if k <= 0 {
		return nil, ErrBadK
	}
	if k > n {
		k = n
	}
	searchQueries.Add(int64(queries.Rows))
	out := make([][]Neighbor, queries.Rows)
	parallel.For(queries.Rows, 1, func(lo, hi int) {
		for qi := lo; qi < hi; qi++ {
			searchCandidates.Observe(float64(n))
			q := queries.Row(qi)
			// The query norm is hoisted once per query (see Nearest); the
			// shared scan kernel uses pooled ranking buffers and copies only
			// the k winners out.
			var qn float64
			if metric == Cosine {
				qn = linalg.Norm(q)
			}
			out[qi] = scanNearest(points, q, qn, k, metric)
		}
	})
	return out, nil
}

// Combine merges the value vectors of the neighbors (rows of values
// indexed by Neighbor.Index) into one prediction under the weighting
// scheme: Σ wtᵢ·vᵢ over the neighbors in rank order, times 1/Σ wtᵢ.
//
// That weighted sum can overflow where the mean does not (two finite values
// of 1e308 under equal weights). A component that comes out non-finite from
// neighbor values that are all finite is recomputed as Σ (wtᵢ/Σ wt)·vᵢ in
// rank order, whose terms are no larger than the values themselves; every
// component that is finite the first way keeps its bits.
func Combine(values *linalg.Matrix, neighbors []Neighbor, w Weighting) []float64 {
	out := make([]float64, values.Cols)
	if len(neighbors) == 0 {
		return out
	}
	total := 0.0
	for rank, nb := range neighbors {
		wt := w.weight(rank, len(neighbors), nb)
		linalg.Axpy(wt, values.Row(nb.Index), out)
		total += wt
	}
	linalg.ScaleVec(1/total, out)
	for j, v := range out {
		if !isFinite(v) {
			out[j] = combineNormalized(values, neighbors, w, total, j, v)
		}
	}
	return out
}

// weight is the weight of the neighbor at the given rank among k.
func (w Weighting) weight(rank, k int, nb Neighbor) float64 {
	switch w {
	case RankWeight:
		return float64(k - rank)
	case DistanceWeight:
		return 1 / (nb.Distance + 1e-9)
	default:
		return 1
	}
}

// combineNormalized is component j of Combine with normalized weights, or
// the weighted-sum result v unchanged when a neighbor's value is itself
// non-finite.
func combineNormalized(values *linalg.Matrix, neighbors []Neighbor, w Weighting, total float64, j int, v float64) float64 {
	s := 0.0
	for rank, nb := range neighbors {
		x := values.At(nb.Index, j)
		if !isFinite(x) {
			return v
		}
		s += w.weight(rank, len(neighbors), nb) / total * x
	}
	return s
}

func isFinite(v float64) bool { return !math.IsInf(v, 0) && !math.IsNaN(v) }

// Predict is Nearest followed by Combine.
func Predict(points, values *linalg.Matrix, q []float64, opt Options) ([]float64, []Neighbor, error) {
	if points.Rows != values.Rows {
		return nil, nil, fmt.Errorf("%w: %d points but %d value rows", ErrDimension, points.Rows, values.Rows)
	}
	nbs, err := Nearest(points, q, opt.K, opt.Distance)
	if err != nil {
		return nil, nil, err
	}
	return Combine(values, nbs, opt.Weighting), nbs, nil
}

// Confidence converts the neighbor distances into a confidence score in
// (0, 1]: queries far from all their neighbors get low confidence. This is
// the paper's Sec. VII-C.3 idea for flagging anomalous queries whose
// predictions should not be trusted. The scale parameter is a reference
// distance (for example the median neighbor distance on the training set).
func Confidence(neighbors []Neighbor, scale float64) float64 {
	if len(neighbors) == 0 {
		return 0
	}
	if scale <= 0 {
		scale = 1
	}
	mean := 0.0
	for _, nb := range neighbors {
		mean += nb.Distance
	}
	mean /= float64(len(neighbors))
	return math.Exp(-mean / scale)
}
