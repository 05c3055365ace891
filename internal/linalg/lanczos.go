package linalg

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/obs"
)

// This file implements the top-rank eigensolver used by incremental KCCA
// retraining on large windows: a block subspace iteration with
// Rayleigh–Ritz extraction (the restarted-Lanczos family — one operator
// application per outer iteration, full reorthogonalization of a small
// basis). Unlike SymEig it never tridiagonalizes the full matrix, so
// computing the leading r eigenpairs of an n×n kernel costs
// O(iters · n² · b) with b = r + oversample instead of O(n³). The iteration
// contracts at λ_{b+1}/λ_r per step: a warm start from the previous
// window's eigenvectors saves the first few steps, but reaching 1e-11 on a
// real workload kernel still takes tens of them (24–37 at rank 80 on this
// repository's TPC-DS-simulated windows), so the caller weighs
// iters · n² · b against n³ before choosing it (kcca.chooseSolver).

// ErrNotConverged means the subspace iteration did not reach the requested
// residual tolerance within the iteration budget; callers fall back to the
// dense solver.
var ErrNotConverged = errors.New("linalg: subspace iteration did not converge")

// DefaultOversample is the default number of extra basis columns carried
// beyond the requested rank (EigenOptions.Oversample when zero). Exported so
// callers can cost the iteration at the block width the solver will use.
const DefaultOversample = 8

// eigenIterIters records the outer iterations each TopEigenIterative call
// ran, converged or not.
var eigenIterIters = obs.GetHistogram("linalg.eigen_iter.iterations")

// EigenOptions tunes TopEigenIterative. The zero value selects defaults.
type EigenOptions struct {
	// MaxIter bounds the outer iterations (default 200). Callers with a
	// dense alternative set it to the count at which that would have been
	// cheaper.
	MaxIter int
	// Tol is the relative residual tolerance: every returned eigenpair
	// satisfies ‖A·v − λ·v‖ ≤ Tol·max(λ₁, ε). The default is 1e-11 — tight,
	// because kernel-PCA whitening (Λ^{−1/2}) and the CCA solve amplify
	// eigenvector error by a few orders of magnitude on their way into
	// projection coordinates, and the consumers document 1e-6 equivalence.
	Tol float64
	// Oversample is the number of extra basis columns carried beyond the
	// requested rank; the slack dramatically improves convergence when the
	// spectrum plateaus near the cut (default 8).
	Oversample int
	// Warm, when non-nil, seeds the initial basis with its columns (the
	// previous retrain's eigenvectors). Extra columns are completed with a
	// deterministic pseudo-random fill.
	Warm *Matrix
	// Seed drives the deterministic pseudo-random basis completion.
	// Zero selects a fixed default, so repeated runs are identical.
	Seed uint64
	// DropBelow exempts Ritz pairs whose value is below DropBelow·λ₁ from
	// the residual requirement. Consumers that discard insignificant
	// components anyway (kernel PCA's keep threshold) set it to their
	// discard level, so an effectively rank-deficient operator — requested
	// rank far above the spectrum's numerical rank — still converges
	// instead of chasing tight residuals on near-null noise it will throw
	// away. Zero means no exemption.
	DropBelow float64
}

// TopEigenIterative computes the leading r eigenpairs (largest eigenvalues)
// of the symmetric positive-semidefinite operator represented by apply,
// which must write A·src into dst (both length n). It returns the
// eigenvalues in descending order with the matching eigenvectors as
// columns, exactly like TopEigen, or ErrNotConverged.
//
// The operator is only assumed symmetric PSD — the intended A is a centered
// kernel matrix, applied implicitly so the caller never materializes the
// centered matrix. Everything here is deterministic: the random basis fill
// is seeded, and all floating-point reductions run in fixed order.
func TopEigenIterative(n, r int, apply func(dst, src []float64), opt EigenOptions) ([]float64, *Matrix, error) {
	defer obs.Span("linalg.eigen_iter")()
	if n < 0 || r < 0 {
		return nil, nil, fmt.Errorf("linalg: TopEigenIterative invalid sizes n=%d r=%d", n, r)
	}
	if r > n {
		r = n
	}
	if r == 0 || n == 0 {
		return nil, NewMatrix(n, 0), nil
	}
	if opt.MaxIter <= 0 {
		opt.MaxIter = 200
	}
	if opt.Tol <= 0 {
		opt.Tol = 1e-11
	}
	if opt.Oversample <= 0 {
		opt.Oversample = DefaultOversample
	}
	b := r + opt.Oversample
	if b > n {
		b = n
	}
	rng := newSplitMix(opt.Seed)

	// Initial basis: warm columns first, pseudo-random completion.
	v := NewMatrix(n, b)
	warmCols := 0
	if opt.Warm != nil && opt.Warm.Rows == n {
		warmCols = opt.Warm.Cols
		if warmCols > b {
			warmCols = b
		}
		for i := 0; i < n; i++ {
			copy(v.Row(i)[:warmCols], opt.Warm.Row(i)[:warmCols])
		}
	}
	for j := warmCols; j < b; j++ {
		fillColRandom(v, j, rng)
	}
	if err := orthonormalizeCols(v, rng); err != nil {
		return nil, nil, err
	}

	w := NewMatrix(n, b)
	src := make([]float64, n)
	dst := make([]float64, n)
	// Stall detection: on a near-flat spectrum (λ_b ≈ λ_r, e.g. a Gaussian
	// kernel much narrower than the inter-point distances, where K ≈ I) the
	// per-iteration contraction ratio approaches 1 and the tolerance is
	// unreachable. Track the best residual seen; bail out early when ten
	// iterations fail to halve it, so callers fall back to the dense solver
	// after O(10) operator applications instead of a full MaxIter budget.
	const stallWindow = 10
	bestRes := math.Inf(1)
	sinceImproved := 0
	for iter := 0; iter < opt.MaxIter; iter++ {
		// W = A·V, one column at a time (apply itself may parallelize).
		for j := 0; j < b; j++ {
			for i := 0; i < n; i++ {
				src[i] = v.At(i, j)
			}
			apply(dst, src)
			for i := 0; i < n; i++ {
				w.Set(i, j, dst[i])
			}
		}
		// Rayleigh quotient on span(V) and its Ritz decomposition.
		h := v.TMul(w)
		for i := 0; i < b; i++ {
			for j := i + 1; j < b; j++ {
				s := 0.5 * (h.At(i, j) + h.At(j, i))
				h.Set(i, j, s)
				h.Set(j, i, s)
			}
		}
		es, err := SymEig(h)
		if err != nil {
			return nil, nil, err
		}
		// Ritz vectors X = V·S and their images A·X = W·S share the rotation.
		vs := v.Mul(es.Vectors)
		ws := w.Mul(es.Vectors)
		scale := math.Max(math.Abs(es.Values[0]), 1e-300)
		// Every pair must meet the tight per-pair residual. No slack for
		// small eigenvalues: kernel-PCA whitening divides by √λ and the CCA
		// solve re-scales each component to unit variance, so residual error
		// on ANY kept pair — however small its eigenvalue — surfaces in the
		// final projections amplified by 1/λ. A spectrum whose kept range
		// contains a near-degenerate plateau therefore cannot be served by
		// this solver at all (the stall detector routes those to the dense
		// fallback) rather than served loosely.
		maxRes := 0.0
		for j := 0; j < r; j++ {
			if es.Values[j] < opt.DropBelow*scale {
				continue // consumer discards this pair; accuracy is moot
			}
			res := 0.0
			for i := 0; i < n; i++ {
				d := ws.At(i, j) - es.Values[j]*vs.At(i, j)
				res += d * d
			}
			if res = math.Sqrt(res); res > maxRes {
				maxRes = res
			}
		}
		if maxRes <= opt.Tol*scale {
			eigenIterIters.Observe(float64(iter + 1))
			return append([]float64(nil), es.Values[:r]...), vs.SliceCols(0, r), nil
		}
		if maxRes <= 0.5*bestRes {
			bestRes = maxRes
			sinceImproved = 0
		} else if sinceImproved++; sinceImproved >= stallWindow {
			eigenIterIters.Observe(float64(iter + 1))
			return nil, nil, fmt.Errorf("%w: residual stalled at %.3g after %d iterations",
				ErrNotConverged, maxRes/scale, iter+1)
		}
		// Power step: the next basis spans A·V (rotated — same span, but the
		// leading Ritz directions land in the leading columns, which keeps
		// the Gram–Schmidt pass numerically tame).
		v, ws = ws, v
		if err := orthonormalizeCols(v, rng); err != nil {
			return nil, nil, err
		}
	}
	eigenIterIters.Observe(float64(opt.MaxIter))
	return nil, nil, fmt.Errorf("%w after %d iterations", ErrNotConverged, opt.MaxIter)
}

// orthonormalizeCols makes the columns of v orthonormal in place with
// modified Gram–Schmidt (two projection passes per column for stability).
// A column that collapses to numerical zero — the basis was rank-deficient
// — is replaced by a deterministic random draw and re-projected.
func orthonormalizeCols(v *Matrix, rng *splitMix) error {
	n, b := v.Rows, v.Cols
	for j := 0; j < b; j++ {
		for attempt := 0; ; attempt++ {
			for pass := 0; pass < 2; pass++ {
				for i := 0; i < j; i++ {
					d := colDot(v, i, j)
					if d != 0 {
						colAxpy(v, -d, i, j)
					}
				}
			}
			nrm := math.Sqrt(colDot(v, j, j))
			if nrm > 1e-12 {
				inv := 1 / nrm
				for i := 0; i < n; i++ {
					v.Set(i, j, v.At(i, j)*inv)
				}
				break
			}
			if attempt >= 8 {
				return errors.New("linalg: could not build an orthonormal basis (operator rank too low)")
			}
			fillColRandom(v, j, rng)
		}
	}
	return nil
}

func colDot(v *Matrix, a, b int) float64 {
	s := 0.0
	for i := 0; i < v.Rows; i++ {
		s += v.At(i, a) * v.At(i, b)
	}
	return s
}

func colAxpy(v *Matrix, alpha float64, src, dst int) {
	for i := 0; i < v.Rows; i++ {
		v.Set(i, dst, v.At(i, dst)+alpha*v.At(i, src))
	}
}

func fillColRandom(v *Matrix, j int, rng *splitMix) {
	for i := 0; i < v.Rows; i++ {
		v.Set(i, j, rng.float64()-0.5)
	}
}

// splitMix is a tiny deterministic PRNG (splitmix64) for basis completion —
// quality requirements are minimal (any direction not inside a fixed
// subspace works), determinism is what matters.
type splitMix struct{ state uint64 }

func newSplitMix(seed uint64) *splitMix {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &splitMix{state: seed}
}

func (s *splitMix) next() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (s *splitMix) float64() float64 {
	return float64(s.next()>>11) / (1 << 53)
}
