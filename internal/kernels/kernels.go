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
// (one float64 slice per in-flight cross-vector caller).
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

// CrossVectorColsInto computes the kernel evaluations k(q, xᵢ) of one query
// point against every training point xᵢ — Gaussian(xᵢ, q, tau), bit for bit —
// into out (length: the number of points), from the feature-major copy
// xT = x.T() (one row per feature, one column per training point): in that
// layout neighbouring points are neighbours in memory, which is what lets
// linalg.SqDistCols carry sixteen points' sums through one pass over q. The
// exponentials follow in place, through linalg.ExpNegScaledInto: math.Exp's
// own arithmetic four points at a time where the processor has AVX2 and FMA,
// math.Exp per point elsewhere.
func CrossVectorColsInto(out []float64, xT *linalg.Matrix, q []float64, tau float64) []float64 {
	defer obs.Span("kernels.cross_vector")()
	checkCross(out, xT.Cols, xT.Rows, q, tau)
	linalg.SqDistCols(out, xT, q)
	linalg.ExpNegScaledInto(out, out, tau)
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
