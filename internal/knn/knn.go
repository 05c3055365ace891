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
	"time"

	"repro/internal/linalg"
	"repro/internal/obs"
)

// Search metrics: every Nearest call counts its queries and observes
// how many candidate points each query was ranked against; every search,
// flat or indexed, is timed.
var (
	searchQueries    = obs.GetCounter("knn.search.queries")
	searchCandidates = obs.GetHistogram("knn.search.candidates")
	searchSeconds    = obs.GetHistogram("knn.search.seconds")
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
// at n = 4000. Only the k winners are copied out. (Index keeps a
// k-bounded heap instead and needs no such buffer.)
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
// oracle suite holds Index to, bit for bit. The index tie-break
// is load-bearing: equal-distance neighbors (duplicated training rows are
// common in template workloads) must order identically here and in Index,
// or the two could reorder predictions under weighted combination.
func Nearest(points *linalg.Matrix, q []float64, k int, metric Distance) ([]Neighbor, error) {
	defer searchSeconds.Since(time.Now())
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
	for i := range all {
		all[i] = Neighbor{Index: i, Distance: pointDistance(points.Row(i), q, qn, metric)}
	}
	sort.Sort(scratch)
	return append(make([]Neighbor, 0, k), all[:k]...), nil
}

// less is the total order on neighbors: ascending distance, then ascending
// index. NaN distances sort last so poisoned rows never shadow real
// neighbors; among themselves NaN entries also break ties by index, so the
// order is total even on all-NaN tails (sort.Sort is unstable — without the
// index tie-break, two NaN rows could come back in either order, and the
// index and the flat scan could then legally disagree).
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
	return CombineInto(make([]float64, values.Cols), values, neighbors, w)
}

// CombineInto is Combine written into out (length values.Cols, all zero),
// which it returns.
func CombineInto(out []float64, values *linalg.Matrix, neighbors []Neighbor, w Weighting) []float64 {
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
