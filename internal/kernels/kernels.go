// Package kernels implements the kernel functions and kernel matrices used
// by KCCA: the Gaussian (RBF) kernel of Eq. (1) of the paper, the paper's
// scale heuristic (τ set to a fixed fraction of the empirical variance of
// the data-point norms), and kernel matrix centering.
package kernels

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// Gaussian returns exp(−‖a−b‖²/τ), the paper's Eq. (1).
func Gaussian(a, b []float64, tau float64) float64 {
	if tau <= 0 {
		panic("kernels: nonpositive scale")
	}
	d := 0.0
	for i := range a {
		x := a[i] - b[i]
		d += x * x
	}
	return math.Exp(-d / tau)
}

// ScaleHeuristic returns τ = frac · Var(‖xᵢ‖), the paper's choice of kernel
// scale: "a fixed fraction of the empirical variance of the norms of the
// data points" (0.1 for query vectors, 0.2 for performance vectors). A
// positive floor keeps degenerate datasets usable.
func ScaleHeuristic(rows *linalg.Matrix, frac float64) float64 {
	norms := make([]float64, rows.Rows)
	for i := 0; i < rows.Rows; i++ {
		norms[i] = linalg.Norm(rows.Row(i))
	}
	tau := frac * linalg.Variance(norms)
	if tau <= 1e-12 {
		// All norms (nearly) identical: fall back to the mean squared norm
		// so the kernel still discriminates by direction.
		m := linalg.Mean(norms)
		tau = frac * (m*m + 1)
	}
	return tau
}

// Matrix computes the N×N Gaussian kernel matrix of the rows of x. Rows are
// partitioned across the shared worker pool; element (i, j) with i < j is
// computed exactly once (by the worker owning row i, which mirrors it to
// (j, i)), so the result is identical to the serial loop at every worker
// count.
func Matrix(x *linalg.Matrix, tau float64) *linalg.Matrix {
	defer obs.Span("kernels.matrix")()
	n := x.Rows
	k := linalg.NewMatrix(n, n)
	parallel.For(n, parallel.GrainFor(n*x.Cols/2+1, 1<<15), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			k.Set(i, i, 1)
			ri := x.Row(i)
			for j := i + 1; j < n; j++ {
				v := Gaussian(ri, x.Row(j), tau)
				k.Set(i, j, v)
				k.Set(j, i, v)
			}
		}
	})
	return k
}

// crossScratch pools the per-call kernel vectors of the prediction hot path
// (one float64 slice per in-flight CrossVector-using caller).
var crossScratch = sync.Pool{New: func() any { s := make([]float64, 0, 512); return &s }}

// GetScratch leases a float64 buffer of length n from the package pool;
// pair with PutScratch. Hot paths that consume a kernel vector and discard
// it (the query projection) use it to keep per-prediction allocations flat.
func GetScratch(n int) *[]float64 {
	p := crossScratch.Get().(*[]float64)
	if cap(*p) < n {
		*p = make([]float64, n)
	}
	*p = (*p)[:n]
	return p
}

// PutScratch returns a leased buffer to the pool.
func PutScratch(p *[]float64) { crossScratch.Put(p) }

// CrossVector computes the kernel evaluations k(q, xᵢ) of one query point
// against every row of x.
func CrossVector(x *linalg.Matrix, q []float64, tau float64) []float64 {
	return CrossVectorInto(make([]float64, x.Rows), x, q, tau)
}

// CrossVectorInto is CrossVector into a caller-owned buffer of length
// x.Rows (commonly leased from GetScratch), returning it. Row blocks go to
// the worker pool: it serves training-time callers with one long vector to
// fill. The prediction path, which has many queries instead and fans out
// over those, uses CrossVectorColsInto.
func CrossVectorInto(out []float64, x *linalg.Matrix, q []float64, tau float64) []float64 {
	defer obs.Span("kernels.cross_vector")()
	checkCross(out, x.Rows, x.Cols, q, tau)
	parallel.For(x.Rows, parallel.GrainFor(x.Cols, 1<<14), func(lo, hi int) {
		crossRows(out, x, q, tau, lo, hi)
	})
	return out
}

// CrossVectorColsInto is CrossVectorInto, bit for bit, on the calling
// goroutine and from the feature-major copy xT = x.T() (one row per feature,
// one column per training point): in that layout neighbouring points are
// neighbours in memory, which is what lets linalg.SqDistCols carry sixteen
// points' sums through one pass over q. The exponential is applied per point
// afterwards, in place.
func CrossVectorColsInto(out []float64, xT *linalg.Matrix, q []float64, tau float64) []float64 {
	defer obs.Span("kernels.cross_vector")()
	checkCross(out, xT.Cols, xT.Rows, q, tau)
	linalg.SqDistCols(out, xT, q)
	for i, d := range out {
		out[i] = math.Exp(-d / tau)
	}
	return out
}

// checkCross validates a cross-vector call against a point set of the given
// size and feature count.
func checkCross(out []float64, points, features int, q []float64, tau float64) {
	if tau <= 0 {
		panic("kernels: nonpositive scale")
	}
	if len(q) != features {
		panic(fmt.Sprintf("kernels: query has %d features, want %d", len(q), features))
	}
	if len(out) != points {
		panic(fmt.Sprintf("kernels: cross-vector buffer has %d entries, want %d", len(out), points))
	}
}

// crossRows sets out[i] = Gaussian(x.Row(i), q, tau) for i in [lo, hi), bit
// for bit: Gaussian's one sum per row is latency-bound on its own add
// chain, so four rows share a pass (linalg.SqDist4 keeps each row's terms
// in Gaussian's order) and the last few rows go through Gaussian itself.
func crossRows(out []float64, x *linalg.Matrix, q []float64, tau float64, lo, hi int) {
	i := lo
	for ; i+4 <= hi; i += 4 {
		d0, d1, d2, d3, _ := linalg.SqDist4(x.Row(i), x.Row(i+1), x.Row(i+2), x.Row(i+3), q, math.Inf(1))
		out[i] = math.Exp(-d0 / tau)
		out[i+1] = math.Exp(-d1 / tau)
		out[i+2] = math.Exp(-d2 / tau)
		out[i+3] = math.Exp(-d3 / tau)
	}
	for ; i < hi; i++ {
		out[i] = Gaussian(x.Row(i), q, tau)
	}
}

// Center double-centers the kernel matrix in feature space, in place:
// K ← (I − 1/n) K (I − 1/n). It returns the row means and grand mean needed
// to center out-of-sample kernel vectors consistently. Centering in place is
// exact: once the row means exist, each element is read only to overwrite
// itself.
func Center(k *linalg.Matrix) (rowMeans []float64, grandMean float64) {
	defer obs.Span("kernels.center")()
	n := k.Rows
	if k.Cols != n {
		panic(fmt.Sprintf("kernels: centering a %dx%d matrix, want square", k.Rows, k.Cols))
	}
	rowMeans = make([]float64, n)
	grain := parallel.GrainFor(n, 1<<15)
	parallel.For(n, grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			rowMeans[i] = linalg.Mean(k.Row(i))
		}
	})
	grandMean = linalg.Mean(rowMeans)
	parallel.For(n, grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for j := 0; j < n; j++ {
				k.Set(i, j, k.At(i, j)-rowMeans[i]-rowMeans[j]+grandMean)
			}
		}
	})
	return rowMeans, grandMean
}

// CenterCross centers an out-of-sample kernel vector kq (evaluations of the
// new point against the training points) consistently with Center:
// k'ᵢ = kᵢ − mean(kq) − rowMeansᵢ + grandMean.
func CenterCross(kq, rowMeans []float64, grandMean float64) []float64 {
	return CenterCrossInto(make([]float64, len(kq)), kq, rowMeans, grandMean)
}

// CenterCrossInto is CenterCross into a caller-owned buffer; dst may alias
// kq, letting hot paths center a leased kernel vector in place.
func CenterCrossInto(dst, kq, rowMeans []float64, grandMean float64) []float64 {
	m := linalg.Mean(kq)
	for i, v := range kq {
		dst[i] = v - m - rowMeans[i] + grandMean
	}
	return dst
}

// MedianSqDist returns the median squared Euclidean distance between rows
// of x (subsampled for large inputs) — the standard "median heuristic" for
// choosing a Gaussian kernel scale when the norm-variance heuristic
// degenerates (e.g. compact feature spaces where norms barely vary).
func MedianSqDist(x *linalg.Matrix) float64 {
	n := x.Rows
	if n < 2 {
		return 1
	}
	// Deterministic subsample: stride through the rows.
	maxPairs := 2000
	var dists []float64
	stride := 1
	if n*(n-1)/2 > maxPairs {
		stride = n * (n - 1) / 2 / maxPairs
		if stride < 1 {
			stride = 1
		}
	}
	count := 0
	for i := 0; i < n && len(dists) < maxPairs; i++ {
		for j := i + 1; j < n && len(dists) < maxPairs; j++ {
			if count%stride == 0 {
				d := 0.0
				ri, rj := x.Row(i), x.Row(j)
				for k := range ri {
					v := ri[k] - rj[k]
					d += v * v
				}
				dists = append(dists, d)
			}
			count++
		}
	}
	sort.Float64s(dists)
	m := dists[len(dists)/2]
	if m <= 0 {
		return 1
	}
	return m
}
