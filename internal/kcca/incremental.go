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
var (
	retrainFull = obs.GetCounter("kcca.retrain.full")
	retrainInc  = obs.GetCounter("kcca.retrain.incremental")
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
// never rebuilds a kernel while τ stays frozen: it centers the maintained
// matrices into retained scratch buffers and runs on them the code Train
// runs on freshly built ones — the dense tred2/tql2 solve, the significance
// threshold, CCA fit, projections.
//
// Equivalence discipline: while τ stays frozen, the maintained kernel
// matrices are bit-identical to from-scratch builds, so every incremental
// retrain is bit-for-bit Train on the slot-order window at the frozen
// scales. When the τ-drift guard fires, the caller runs TrainFull, which is
// exactly Train — bit-for-bit again.
//
// Incremental is not safe for concurrent use: the owner (core's sliding
// predictor) serializes Append/Replace/Retrain under its mutex. TrainFull is
// a pure function of its arguments and may run outside that lock.
type Incremental struct {
	opt      Options
	capacity int

	mx, my *kernels.Maintained
	stale  bool

	// scratchX and scratchY are the n×n buffers Retrain centers the
	// maintained kernels into and decomposes in place, kept across retrains
	// (and not part of the snapshotted state: they hold no information).
	scratchX, scratchY *linalg.Matrix
}

// Seed is the maintained state produced by a full retrain, handed back via
// Install once the caller has confirmed the window did not move during the
// (unlocked) full train.
type Seed struct {
	mx, my *kernels.Maintained
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

// Retrain runs the incremental retrain: both maintained kernels centered
// into the retained scratch buffers, then fitModel — kernel PCA, CCA and
// projections, the code Train runs. It returns an error matching
// ErrNeedFull when the maintained state cannot serve; the caller then runs
// TrainFull.
func (inc *Incremental) Retrain() (*Model, error) {
	if inc.NeedsFull() {
		return nil, ErrNeedFull
	}
	defer obs.Span("kcca.retrain.incremental")()
	if n := inc.mx.N(); inc.scratchX == nil || inc.scratchX.Rows != n {
		inc.scratchX, inc.scratchY = linalg.NewMatrix(n, n), linalg.NewMatrix(n, n)
	}
	var rowMeansX []float64
	var grandX float64
	stopKernel := obs.Span("kcca.train.kernel")
	parallel.Do(
		func() { rowMeansX, grandX = kernels.CenterInto(inc.scratchX, inc.mx.K) },
		func() { kernels.CenterInto(inc.scratchY, inc.my.K) },
	)
	stopKernel()
	model, err := fitModel(inc.mx.XClone(), inc.mx.Tau, inc.my.Tau, inc.scratchX, inc.scratchY, rowMeansX, grandX, inc.opt)
	if err != nil {
		return nil, err
	}
	retrainInc.Inc()
	return model, nil
}

// TrainFull is the full retrain: it trains exactly like Train (bit-identical
// model) and additionally builds fresh maintained kernel state for the
// caller to Install. It reads only the retrainer's immutable configuration,
// so it is safe to run on a window snapshot outside the owner's lock while
// observations keep arriving.
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
	model, err := fitModel(x.Clone(), mx.Tau, my.Tau, kxC, kyC, rowMeansX, grandX, opt)
	if err != nil {
		return nil, nil, err
	}
	retrainFull.Inc()
	return model, &Seed{mx: mx, my: my}, nil
}

// Install adopts the maintained state a TrainFull produced. The caller must
// have verified the window did not move since the snapshot TrainFull ran on
// (otherwise Invalidate, not Install).
func (inc *Incremental) Install(s *Seed) {
	inc.mx, inc.my = s.mx, s.my
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
