// Package kernels implements the kernel functions and kernel matrices used
// by KCCA: the Gaussian (RBF) kernel of Eq. (1) of the paper, the paper's
// scale heuristic (τ set to a fixed fraction of the empirical variance of
// the data-point norms), and kernel matrix centering.
package kernels

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/linalg"
	"repro/internal/obs"
)

// Kernel-matrix timings: the n×n training kernel, its centering, and one
// query's cross-kernel vector.
var (
	matrixSeconds      = obs.GetHistogram("kernels.matrix.seconds")
	centerSeconds      = obs.GetHistogram("kernels.center.seconds")
	crossVectorSeconds = obs.GetHistogram("kernels.cross_vector.seconds")
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

// Matrix computes the N×N Gaussian kernel matrix of the rows of x:
// Gaussian(x.Row(i), x.Row(j), tau) at (i, j), bit for bit, with the
// diagonal exactly 1 and the lower triangle the mirror of the upper.
//
// Row i's upper triangle is one distance pass per blockWidth-point
// feature-major block from the block holding column i+1 on (linalg.SqDistCols:
// (xⱼ−xᵢ)² is (xᵢ−xⱼ)², added in feature order from +0 as Gaussian adds
// them), then one linalg.ExpNegScaledInto over columns i+1.. — math.Exp's own
// arithmetic, the path CrossVectorColsInto takes. Each finished strip of
// blockWidth rows is mirrored below the diagonal a row at a time, one
// contiguous run per row: a column at a time, the mirror's scattered stores
// cost a third of the matrix at six features.
func Matrix(x *linalg.Matrix, tau float64) *linalg.Matrix {
	defer matrixSeconds.Since(time.Now())
	if tau <= 0 {
		panic("kernels: nonpositive scale")
	}
	n := x.Rows
	k := linalg.NewMatrix(n, n)
	blocks := featureBlocks(x)
	dist := make([]float64, n)
	for lo := 0; lo < n; lo += blockWidth {
		hi := min(lo+blockWidth, n)
		for i := lo; i < hi; i++ {
			xi, row := x.Row(i), k.Row(i)
			for b := (i + 1) / blockWidth; b < len(blocks); b++ {
				linalg.SqDistCols(dist[b*blockWidth:][:blocks[b].Cols], blocks[b], xi)
			}
			row[i] = 1
			linalg.ExpNegScaledInto(row[i+1:], dist[i+1:], tau)
		}
		for j := lo + 1; j < n; j++ {
			dst := k.Data[j*n+lo : j*n+min(hi, j)]
			for c := range dst {
				dst[c] = k.Data[(lo+c)*n+j]
			}
		}
	}
	return k
}

// blockWidth is the number of points per feature-major block of Matrix: the
// width linalg.SqDistCols carries through one pass on AVX2.
const blockWidth = 16

// featureBlocks splits the rows of x into consecutive groups of blockWidth
// (the last may be narrower) and returns each group feature-major: block b
// holds point 16b+c's feature f at (f, c).
func featureBlocks(x *linalg.Matrix) []*linalg.Matrix {
	n, d := x.Rows, x.Cols
	data := make([]float64, n*d)
	blocks := make([]*linalg.Matrix, 0, (n+blockWidth-1)/blockWidth)
	for lo := 0; lo < n; lo += blockWidth {
		w := min(blockWidth, n-lo)
		b := linalg.NewMatrixFrom(d, w, data[lo*d:(lo+w)*d:(lo+w)*d])
		for c := 0; c < w; c++ {
			for f, v := range x.Row(lo + c) {
				b.Data[f*w+c] = v
			}
		}
		blocks = append(blocks, b)
	}
	return blocks
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
	defer crossVectorSeconds.Since(time.Now())
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
	defer centerSeconds.Since(time.Now())
	n := k.Rows
	if k.Cols != n {
		panic(fmt.Sprintf("kernels: centering a %dx%d matrix, want square", k.Rows, k.Cols))
	}
	rowMeans = make([]float64, n)
	for i := range rowMeans {
		rowMeans[i] = linalg.Mean(k.Row(i))
	}
	grandMean = linalg.Mean(rowMeans)
	for i := 0; i < n; i++ {
		row, ri := k.Row(i), rowMeans[i]
		for j, v := range row {
			row[j] = v - ri - rowMeans[j] + grandMean
		}
	}
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
