package kcca

import (
	"errors"

	"repro/internal/kernels"
	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// Retrain-path metrics. retrainInc counts sliding-window retrains served
// from the maintained kernels, retrainFull those that rebuilt them (window
// growth, τ-drift, invalidation); the τ-drift guard test asserts on these.
// solverDense / solverIter say which eigensolver served each view of an
// incremental retrain (two views per retrain; an iteration that gave up and
// fell back counts as dense).
var (
	retrainFull = obs.GetCounter("kcca.retrain.full")
	retrainInc  = obs.GetCounter("kcca.retrain.incremental")
	solverDense = obs.GetCounter("kcca.retrain.solver.dense")
	solverIter  = obs.GetCounter("kcca.retrain.solver.iterative")
)

// ErrNeedFull means the incremental retrain path cannot serve this retrain
// — the window grew, the τ-drift guard fired, or there is no maintained
// state yet — and the caller must run TrainFull instead. Matched with
// errors.Is.
var ErrNeedFull = errors.New("kcca: incremental retrain needs a full rebuild")

// Incremental is the sliding-window KCCA retrainer. It owns maintained
// kernel state for both views (query features X, performance features Y),
// keyed to the window's ring-buffer slots: each window slide replaces one
// row of each kernel matrix in O(N·d) (kernels.Maintained), so a retrain
// never rebuilds a kernel while τ stays frozen — it only runs the cheaper of
// the two eigensolvers on the maintained matrices (chooseSolver): the dense
// tred2/tql2 solve in a retained scratch buffer, or the warm-started
// top-rank subspace iteration (linalg.TopEigenIterative). Everything
// downstream of the eigensolve — the significance threshold, CCA fit,
// projections — is byte-for-byte the same code the full path runs.
//
// Equivalence discipline: while τ stays frozen, the maintained kernel
// matrices are bit-identical to from-scratch builds, so a retrain served by
// the dense solver is bit-for-bit Train on the slot-order window at the
// frozen scales, and one served by the iterative solver differs from it only
// through the convergence tolerance (documented in the equivalence tests as
// a relative prediction tolerance of ~1e-6). When the τ-drift guard fires,
// the caller runs TrainFull, which is exactly Train — bit-for-bit again.
//
// Incremental is not safe for concurrent use: the owner (core's sliding
// predictor) serializes Append/Replace/Retrain under its mutex. TrainFull is
// a pure function of its arguments and may run outside that lock.
type Incremental struct {
	opt      Options
	capacity int

	mx, my       *kernels.Maintained
	warmX, warmY *linalg.Matrix
	stale        bool

	// scratchX and scratchY are the n×n buffers the dense solve centers the
	// maintained kernels into and decomposes in place, kept across retrains
	// (and not part of the snapshotted state: they hold no information).
	scratchX, scratchY *linalg.Matrix
}

// Seed is the maintained state produced by a full retrain, handed back via
// Install once the caller has confirmed the window did not move during the
// (unlocked) full train.
type Seed struct {
	mx, my       *kernels.Maintained
	warmX, warmY *linalg.Matrix
}

// NewIncremental returns an empty incremental retrainer for a sliding
// window of at most capacity rows.
func NewIncremental(opt Options, capacity int) *Incremental {
	return &Incremental{opt: applyDefaults(opt), capacity: capacity}
}

// N returns the current window row count.
func (inc *Incremental) N() int {
	if inc.mx == nil {
		return 0
	}
	return inc.mx.N()
}

// Append adds a row pair during the window's grow phase. Kernel state stays
// unsynchronized until the next full retrain (growth changes every row's
// contribution to the scale heuristic anyway).
func (inc *Incremental) Append(xRow, yRow []float64) {
	if inc.mx == nil {
		inc.mx = kernels.NewMaintained(len(xRow), inc.capacity, inc.opt.TauFracX, inc.opt.TauX)
		inc.my = kernels.NewMaintained(len(yRow), inc.capacity, inc.opt.TauFracY, inc.opt.TauY)
	}
	inc.mx.Append(xRow)
	inc.my.Append(yRow)
}

// Replace swaps the row pair at the given ring-buffer slot — the O(N·d)
// steady-state window slide.
func (inc *Incremental) Replace(slot int, xRow, yRow []float64) {
	inc.mx.Replace(slot, xRow)
	inc.my.Replace(slot, yRow)
}

// Invalidate marks the maintained state stale, forcing the next retrain
// down the full path. The sliding predictor calls it when the window moved
// while an unlocked full train was in flight (the seed no longer matches).
func (inc *Incremental) Invalidate() { inc.stale = true }

// NeedsFull reports whether the next retrain must take the full path:
// no state yet, stale or unsynchronized state (window grew), too few rows,
// or the τ-drift guard firing on either view.
func (inc *Incremental) NeedsFull() bool {
	if inc.mx == nil || inc.stale || !inc.mx.Synced() || !inc.my.Synced() || inc.mx.N() < 5 {
		return true
	}
	return inc.mx.Drifted(inc.opt.TauDriftTol) || inc.my.Drifted(inc.opt.TauDriftTol)
}

// The eigensolver of an incremental retrain is chosen by a flop model, a
// pure function of the window shape (n, rank) — never of wall time or of an
// earlier retrain's iteration count, so a daemon recovered from a snapshot
// takes the same path as one that never stopped.
//
//	dense:     denseFlopsPerN3·n³ for tred2 + tql2 with vectors
//	iterative: per outer iteration at block width b = rank + oversample,
//	           2n²b (A·V) + 10nb² (Rayleigh quotient, two rotations, two
//	           Gram–Schmidt passes) + denseFlopsPerN3·b³ (the b×b Ritz solve),
//	           each flop costing iterFlopCost dense flops
//
// With the constants below the iteration is chosen from n ≈ 29·b upward:
// n ≥ 2556 at rank 80, n ≥ 465 at rank 8.
//
// The constants are measurements on this repository (2-vCPU VM, one worker):
// the dense solve ran at 0.13–0.20 ns per model flop for n = 400…2000, one
// iteration at 0.46–0.56 ns per model flop for (n, rank) from (400, 8) to
// (2000, 80), and the measured break-even counts were 3.7 at (500, 80), 9.6
// at (1000, 80), 27 at (2000, 80), 71 at (800, 8).
const (
	// denseFlopsPerN3 is the textbook count: 4/3 reduce + 4/3 accumulate +
	// ~6 for the QL rotations.
	denseFlopsPerN3 = 9
	// iterFlopCost: a model flop of the iteration takes three times as long
	// as one of the dense solve, whose inner loops run over contiguous
	// slices while the iteration gathers and scatters columns of row-major
	// blocks.
	iterFlopCost = 3
	// iterTypical is the top of the 24–37 outer iterations per view that a
	// CPU profile of the stock daemon shape (window 500, retrain every 100,
	// rank 80, TPC-DS-simulated stream, tol 1e-11, warm start 100 slides
	// old) recorded. The iteration is chosen only where that many still
	// cost less than the dense solve.
	iterTypical = 37
)

// chooseSolver picks the eigensolver for a retrain of n rows at kernel-PCA
// rank `rank`: 0 selects the dense solve, a positive count the iteration
// with that budget. The budget is the break-even count — the number of
// iterations that cost what the dense solve costs: past it the dense solve
// would have been cheaper, so the iteration gives up and the dense solve
// runs after all.
func chooseSolver(n, rank int) (maxIter int) {
	b := rank + linalg.DefaultOversample
	if b >= n {
		return 0
	}
	fn, fb := float64(n), float64(b)
	dense := denseFlopsPerN3 * fn * fn * fn
	perIter := iterFlopCost * (2*fn*fn*fb + 10*fn*fb*fb + denseFlopsPerN3*fb*fb*fb)
	if breakEven := int(dense / perIter); breakEven >= iterTypical {
		return breakEven
	}
	return 0
}

// viewPCA is one view's kernel-PCA output from the maintained kernel.
type viewPCA struct {
	phi, u   *linalg.Matrix
	lam      []float64
	rowMeans []float64
	grand    float64
	// warm is the eigenbasis the next iterative solve starts from.
	warm *linalg.Matrix
	err  error
}

// solveView runs kernel PCA on one maintained view: the warm-started
// iteration within its break-even budget when maxIter > 0, and the dense
// solve otherwise or when the iteration did not converge. Neither touches
// the maintained kernel, and the dense solve allocates no n×n matrix once
// *scratch exists.
func solveView(m *kernels.Maintained, scratch **linalg.Matrix, warm *linalg.Matrix, rank, maxIter int) (v viewPCA) {
	n := m.N()
	if maxIter > 0 {
		vals, vecs, err := linalg.TopEigenIterative(n, rank, m.ApplyCentered,
			linalg.EigenOptions{Warm: warm, DropBelow: keepFrac, MaxIter: maxIter})
		if err == nil {
			solverIter.Inc()
			v.phi, v.u, v.lam, v.err = phiFromEigen(n, vals, vecs)
			v.rowMeans, v.grand = m.RowMeans()
			v.warm = vecs
			return v
		}
		if !errors.Is(err, linalg.ErrNotConverged) {
			v.err = err
			return v
		}
	}
	solverDense.Inc()
	if *scratch == nil || (*scratch).Rows != n {
		*scratch = linalg.NewMatrix(n, n)
	}
	v.rowMeans, v.grand = kernels.CenterInto(*scratch, m.K)
	v.phi, v.u, v.lam, v.err = kernelPCA(*scratch, rank)
	v.warm = v.u
	return v
}

// Retrain runs the incremental retrain: kernel PCA of both maintained
// kernels with the eigensolver chooseSolver picks, then the shared
// CCA/projection tail. It returns an error matching ErrNeedFull when the
// maintained state cannot serve; the caller then runs TrainFull.
func (inc *Incremental) Retrain() (*Model, error) {
	if inc.NeedsFull() {
		return nil, ErrNeedFull
	}
	defer obs.Span("kcca.retrain.incremental")()
	rank := resolveRank(inc.mx.N(), inc.opt)
	maxIter := chooseSolver(inc.mx.N(), rank)

	var x, y viewPCA
	stopEigen := obs.Span("kcca.train.eigen")
	parallel.Do(
		func() { x = solveView(inc.mx, &inc.scratchX, inc.warmX, rank, maxIter) },
		func() { y = solveView(inc.my, &inc.scratchY, inc.warmY, rank, maxIter) },
	)
	stopEigen()
	if x.err != nil {
		return nil, x.err
	}
	if y.err != nil {
		return nil, y.err
	}
	model, err := fitModel(inc.mx.XClone(), inc.mx.Tau, inc.my.Tau, x.rowMeans, x.grand,
		x.phi, x.u, x.lam, y.phi, inc.opt)
	if err != nil {
		return nil, err
	}
	inc.warmX, inc.warmY = x.warm, y.warm
	retrainInc.Inc()
	return model, nil
}

// TrainFull is the full retrain: it trains exactly like Train (bit-identical
// model) and additionally builds fresh maintained kernel state seeded with
// the resulting eigenvectors, for the caller to Install. It reads only the
// retrainer's immutable configuration, so it is safe to run on a window
// snapshot outside the owner's lock while observations keep arriving.
func (inc *Incremental) TrainFull(x, y *linalg.Matrix) (*Model, *Seed, error) {
	defer obs.Span("kcca.train")()
	if x.Rows != y.Rows {
		return nil, nil, ErrRowMismatch
	}
	n := x.Rows
	if n < 5 {
		return nil, nil, ErrTooFew
	}
	opt := inc.opt
	mx := maintainedFrom(x, inc.capacity, opt.TauFracX, opt.TauX)
	my := maintainedFrom(y, inc.capacity, opt.TauFracY, opt.TauY)

	var kxC, kyC *linalg.Matrix
	var rowMeansX []float64
	var grandX float64
	stopKernel := obs.Span("kcca.train.kernel")
	parallel.Do(
		func() { mx.Rebuild(); kxC, rowMeansX, grandX = kernels.Center(mx.K) },
		func() { my.Rebuild(); kyC, _, _ = kernels.Center(my.K) },
	)
	stopKernel()

	rank := resolveRank(n, opt)
	var phiX, phiY, ux, uy *linalg.Matrix
	var lamx []float64
	var errX, errY error
	stopEigen := obs.Span("kcca.train.eigen")
	parallel.Do(
		func() { phiX, ux, lamx, errX = kernelPCA(kxC, rank) },
		func() { phiY, uy, _, errY = kernelPCA(kyC, rank) },
	)
	stopEigen()
	if errX != nil {
		return nil, nil, errX
	}
	if errY != nil {
		return nil, nil, errY
	}

	model, err := fitModel(x.Clone(), mx.Tau, my.Tau, rowMeansX, grandX, phiX, ux, lamx, phiY, opt)
	if err != nil {
		return nil, nil, err
	}
	retrainFull.Inc()
	return model, &Seed{mx: mx, my: my, warmX: ux, warmY: uy}, nil
}

// Install adopts the maintained state a TrainFull produced. The caller must
// have verified the window did not move since the snapshot TrainFull ran on
// (otherwise Invalidate, not Install).
func (inc *Incremental) Install(s *Seed) {
	inc.mx, inc.my = s.mx, s.my
	inc.warmX, inc.warmY = s.warmX, s.warmY
	inc.stale = false
}

// maintainedFrom builds maintained kernel state over a snapshot's rows.
func maintainedFrom(m *linalg.Matrix, capacity int, frac, tauOverride float64) *kernels.Maintained {
	if capacity < m.Rows {
		capacity = m.Rows
	}
	mm := kernels.NewMaintained(m.Cols, capacity, frac, tauOverride)
	for i := 0; i < m.Rows; i++ {
		mm.Append(m.Row(i))
	}
	return mm
}
