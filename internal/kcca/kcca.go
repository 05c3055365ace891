// Package kcca implements Kernel Canonical Correlation Analysis — the
// paper's chosen technique (Sec. V-E and VI) — as far as prediction reads
// it. KCCA kernelizes the query and performance features with Gaussian
// kernels, centers and reduces each by kernel PCA, and correlates the two
// with regularized linear CCA. Prediction reads only distances in the query
// projection KxA (Fig. 7), and with every canonical dimension kept those are
// the whitened query-view kernel PCA's: the CCA's weights are Lx⁻ᵀU for an
// orthogonal U, which moves no distance. So Train fits the query view alone
// and never reads the performance data, which only labels the neighbours.
// A model also projects previously unseen queries (Fig. 7's first step).
package kcca

import (
	"errors"
	"math"
	"slices"
	"sync"
	"time"

	"repro/internal/cca"
	"repro/internal/kernels"
	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// Options configures KCCA training.
type Options struct {
	// TauFracX sets the Gaussian kernel scale as a fraction of the empirical
	// variance of the query vectors' norms; the paper uses 0.1. The
	// heuristic suits data whose norms vary over orders of magnitude (like
	// cardinality features).
	TauFracX float64
	// Rank is the kernel-PCA reduction rank; 0 selects an automatic rank
	// (enough components to cover most kernel variance, capped for
	// tractability).
	Rank int
	// Reg is the whitening's ridge regularization; 0 selects a default.
	Reg float64
}

// DefaultOptions returns the paper's settings.
func DefaultOptions() Options {
	return Options{TauFracX: 0.1, Rank: 0, Reg: 1e-3}
}

// Sentinel errors, for errors.Is branching by callers (core wraps these).
var (
	// ErrTooFew means the training set was below the five-query minimum.
	ErrTooFew = errors.New("kcca: need at least five training queries")
	// ErrDegenerate means the kernel matrix had no numerically significant
	// components to build a projection from.
	ErrDegenerate = errors.New("kcca: kernel matrix has no significant components")
)

// Model is a trained KCCA model.
type Model struct {
	// X holds the training query feature matrix (needed to kernelize new
	// queries).
	X *linalg.Matrix
	// TauX is the kernel scale actually used.
	TauX float64

	// QueryProj is the training queries' projection (N×d), the paper's
	// KxA: row i is training query i. Derived by finish.
	QueryProj *linalg.Matrix

	// Centering data for out-of-sample query projection.
	rowMeansX []float64
	grandX    float64
	// Kernel-PCA basis: Phi = Ux·Λx^{1/2}; a new kernel vector kq maps to
	// φq = Λx^{−1/2}·Uxᵀ·kq.
	ux   *linalg.Matrix
	lamx []float64
	// Weights from kernel-PCA coordinates to the projection: Lx⁻ᵀ from
	// Train, Lx⁻ᵀU in files the two-view fit wrote.
	ccaModel *cca.Model

	// xT is X feature-major (one row per feature): the layout the
	// cross-kernel reads (kernels.CrossVectorColsInto). Derived by finish.
	xT *linalg.Matrix
}

// finish derives what a model holds beyond what training fitted — QueryProj
// and xT — from the fitted (or decoded) fields and the training queries'
// kernel-PCA coordinates phiX = Ux·Λx^{1/2}, and returns the model. Train
// and Load both end here, so a loaded model is the trained one.
func (m *Model) finish(phiX *linalg.Matrix) *Model {
	m.QueryProj = m.ccaModel.ProjectAllX(phiX)
	m.xT = m.X.T()
	return m
}

// applyDefaults fills zero-valued options with the paper's defaults.
func applyDefaults(opt Options) Options {
	if opt.TauFracX <= 0 {
		opt.TauFracX = 0.1
	}
	if opt.Reg <= 0 {
		opt.Reg = 1e-3
	}
	return opt
}

// resolveRank applies the automatic kernel-PCA rank rule: a quarter of the
// training set, capped at 80 for tractability, floored at 8 for stability,
// and never exceeding n−1 (a centered kernel matrix has rank ≤ n−1).
func resolveRank(n int, opt Options) int {
	rank := opt.Rank
	if rank <= 0 {
		rank = min(max(n/4, 8), 80)
	}
	return min(rank, n-1)
}

// Training timings — the whole fit and its four stages — and one query's
// projection. The cca stage is the whitening.
var (
	trainSeconds        = obs.GetHistogram("kcca.train.seconds")
	kernelSeconds       = obs.GetHistogram("kcca.train.kernel.seconds")
	eigenSeconds        = obs.GetHistogram("kcca.train.eigen.seconds")
	ccaSeconds          = obs.GetHistogram("kcca.train.cca.seconds")
	projectSeconds      = obs.GetHistogram("kcca.train.project.seconds")
	projectQuerySeconds = obs.GetHistogram("kcca.project_query.seconds")
)

// keepFrac is the kernel-PCA significance threshold: components with
// eigenvalues below keepFrac·max(λ₁, 1) are dropped.
const keepFrac = 1e-10

// Train fits KCCA's query projection on the query features x (one row per
// training query): the centered Gaussian kernel of x — one n×n block, built,
// centered and then decomposed in place — its kernel PCA, and the kernel-PCA
// coordinates whitened with the ridged Cholesky factor of their covariance
// (cca.Whiten). That is the two-view fit's query projection up to an
// orthogonal rotation, so every distance the k-NN search reads is the same.
func Train(x *linalg.Matrix, opt Options) (*Model, error) {
	defer trainSeconds.Since(time.Now())
	n := x.Rows
	if n < 5 {
		return nil, ErrTooFew
	}
	opt = applyDefaults(opt)
	tauX := kernels.ScaleHeuristic(x, opt.TauFracX)

	start := time.Now()
	kx, rowMeansX, grandX := kernels.CenteredMatrix(x, tauX)
	start = kernelSeconds.Since(start)

	phiX, ux, lamx, err := kernelPCA(kx, resolveRank(n, opt))
	start = eigenSeconds.Since(start)
	if err != nil {
		return nil, err
	}

	cm, err := cca.Whiten(phiX, opt.Reg)
	ccaSeconds.Since(start)
	if err != nil {
		return nil, err
	}

	m := &Model{X: x.Clone(), TauX: tauX, rowMeansX: rowMeansX, grandX: grandX, ux: ux, lamx: lamx, ccaModel: cm}
	defer projectSeconds.Since(time.Now())
	return m.finish(phiX), nil
}

// kernelPCA returns Phi = U·Λ^{1/2} for the top-r eigenpairs of the
// centered kernel matrix, dropping components with negligible eigenvalues
// (keepFrac). The dense solve runs in k's own storage: k is destroyed.
func kernelPCA(k *linalg.Matrix, r int) (phi, u *linalg.Matrix, lam []float64, err error) {
	vals, vecs, err := linalg.TopEigenInPlace(k, r)
	if err != nil {
		return nil, nil, nil, err
	}
	keep := 0
	tol := keepFrac * math.Max(vals[0], 1)
	for keep < len(vals) && vals[keep] > tol {
		keep++
	}
	if keep == 0 {
		return nil, nil, nil, ErrDegenerate
	}
	vals = vals[:keep]
	vecs = vecs.SliceCols(0, keep)
	return scaledBasis(vecs, vals), vecs, vals, nil
}

// scaledBasis returns the kernel-PCA coordinates of the training points,
// Phi = U·Λ^{1/2}: row i of u with column j scaled by √lam[j].
func scaledBasis(u *linalg.Matrix, lam []float64) *linalg.Matrix {
	roots := make([]float64, len(lam))
	for j, v := range lam {
		roots[j] = math.Sqrt(v)
	}
	phi := linalg.NewMatrix(u.Rows, len(lam))
	for i := 0; i < u.Rows; i++ {
		row := phi.Row(i)
		for j, x := range u.Row(i) {
			row[j] = x * roots[j]
		}
	}
	return phi
}

// ProjectQuery maps a new query feature vector into the query projection
// (the coordinates used for nearest-neighbor lookup in Fig. 7).
func (m *Model) ProjectQuery(q []float64) []float64 {
	proj, _ := m.ProjectQueryKernel(q)
	return proj
}

// ProjectQueryKernel projects q and also returns its largest raw kernel
// evaluation against the training set — an in-distribution score in (0, 1]:
// near zero, the query is far from everything the model has seen, its
// projection coordinates are meaningless (the kernel vector is numerically
// zero) and downstream confidence should collapse. Both come from one
// cross-kernel vector — the prediction hot path needs both and
// the O(N·d) kernel vector dominates its cost. This is Fig. 7's projection:
// kernelize against the training set, center, reduce onto the kernel-PCA
// basis (φ = Λ^{−1/2}·Uᵀ·k), apply the CCA weights. It runs on the calling
// goroutine; every intermediate lives in one leased scratch buffer, so the
// only allocation is the returned coordinate slice.
func (m *Model) ProjectQueryKernel(q []float64) (proj []float64, maxK float64) {
	proj = make([]float64, m.Dims())
	return proj, m.projectInto(proj, q)
}

// projectInto is ProjectQueryKernel writing the projection into proj
// (length Dims()), which it overwrites whole.
func (m *Model) projectInto(proj, q []float64) (maxK float64) {
	defer projectQuerySeconds.Since(time.Now())
	n, r := m.X.Rows, len(m.lamx)
	scratch := kernels.GetScratch(n + r)
	defer kernels.PutScratch(scratch)
	kq, phi := (*scratch)[:n], (*scratch)[n:]

	kernels.CrossVectorColsInto(kq, m.xT, q, m.TauX)
	for _, v := range kq {
		if v > maxK {
			maxK = v
		}
	}
	kernels.CenterCrossInto(kq, kq, m.rowMeansX, m.grandX)
	m.ux.TMulVecInto(phi, kq)
	// Scale to φ, then center on the training mean as cca.ProjectX does.
	for j := range phi {
		phi[j] = phi[j]/math.Sqrt(m.lamx[j]) - m.ccaModel.MeanX[j]
	}
	m.ccaModel.WX.TMulVecInto(proj, phi)
	return maxK
}

// ProjectBatch is ProjectQueryKernel for every query of qs, bit for bit,
// with one query per parallel task. The projections are rows of one slab
// leased from a pool, which the caller hands back with Release once it has
// read them.
func (m *Model) ProjectBatch(qs [][]float64) *Projections {
	p := projectionsPool.Get().(*Projections)
	p.dims = m.Dims()
	p.rows = slices.Grow(p.rows[:0], len(qs)*p.dims)[:len(qs)*p.dims]
	p.MaxK = slices.Grow(p.MaxK[:0], len(qs))[:len(qs)]
	parallel.For(len(qs), func(i int) {
		p.MaxK[i] = m.projectInto(p.Row(i), qs[i])
	})
	return p
}

// Projections is what ProjectBatch computed: query i's projection is
// Row(i), its largest raw kernel value MaxK[i].
type Projections struct {
	MaxK []float64
	rows []float64
	dims int
}

// Row returns query i's projection.
func (p *Projections) Row(i int) []float64 {
	return p.rows[i*p.dims : (i+1)*p.dims : (i+1)*p.dims]
}

// maxPooledProjections is the most floats a released Projections may hold
// and still be pooled: a 64-query batch at rank 80 holds 5,184.
const maxPooledProjections = 1 << 16

var projectionsPool = sync.Pool{New: func() any { return new(Projections) }}

// Release poisons p with NaN and hands it back to ProjectBatch's pool (or
// drops it, when an unusually large batch grew it). Nothing read from p may
// be used afterwards.
func (p *Projections) Release() {
	if cap(p.rows)+cap(p.MaxK) > maxPooledProjections {
		return
	}
	nan := math.NaN()
	for i := range p.rows {
		p.rows[i] = nan
	}
	for i := range p.MaxK {
		p.MaxK[i] = nan
	}
	projectionsPool.Put(p)
}

// TrainingKernelInto sets out[j] to the kernel value of training points i
// and j — kernels.Gaussian(X.Row(i), X.Row(j), TauX), bit for bit — for
// every j, through the feature-major layout ProjectQueryKernel reads, and
// returns out.
func (m *Model) TrainingKernelInto(out []float64, i int) []float64 {
	return kernels.CrossVectorColsInto(out, m.xT, m.X.Row(i), m.TauX)
}

// Dims returns the dimensionality of the canonical projections.
func (m *Model) Dims() int { return m.QueryProj.Cols }

// N returns the number of training queries.
func (m *Model) N() int { return m.QueryProj.Rows }
