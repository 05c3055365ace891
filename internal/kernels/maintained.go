package kernels

import (
	"fmt"

	"repro/internal/linalg"
	"repro/internal/obs"
)

// Maintained kernel-state metrics: row replacements applied in O(N·d) and
// full O(N²·d) rebuilds.
var (
	maintainedReplaces = obs.GetCounter("kernels.maintained.replaces")
	maintainedRebuilds = obs.GetCounter("kernels.maintained.rebuilds")
)

// Maintained is a Gaussian kernel matrix kept keyed to a mutating row set —
// the sliding retraining window's ring buffer. Steady-state window slides
// replace one row, so the kernel matrix changes in exactly one row/column:
// Replace recomputes that row in O(N·d) instead of the O(N²·d) full
// rebuild, and keeps the per-row norms (scale-heuristic state) current
// along the way. Centering is not maintained: the retrain centers K itself
// (CenterInto), exactly as a from-scratch train centers its fresh kernel.
//
// The kernel scale τ is frozen at the last rebuild. Each replacement moves
// the scale the heuristic *would* choose; Drifted reports when it has moved
// beyond a relative tolerance, and the owner then triggers Rebuild — the
// τ-drift guard that bounds how far an incrementally maintained kernel may
// wander from the one a from-scratch train would produce.
//
// Maintained is not safe for concurrent use; the owner (kcca.Incremental,
// under the sliding predictor's mutex) serializes access.
type Maintained struct {
	// X holds the current rows (n×d). Row index == ring-buffer slot.
	X *linalg.Matrix
	// K is the raw (uncentered) n×n kernel matrix of X at scale Tau.
	K *linalg.Matrix
	// Tau is the frozen kernel scale K was built with.
	Tau float64

	frac        float64 // heuristic fraction (ScaleHeuristic)
	tauOverride float64 // >0 pins τ and disables the drift guard

	norms  []float64 // ‖xᵢ‖ per row, for the scale heuristic
	synced bool      // K/Tau reflect X (false after Append until Rebuild)
}

// NewMaintained returns an empty maintained state for rows of dimension d,
// growing up to capacity rows. frac is the scale-heuristic fraction;
// tauOverride, when positive, pins the kernel scale (disabling the drift
// guard), mirroring kcca.Options.TauX/TauY.
func NewMaintained(d, capacity int, frac, tauOverride float64) *Maintained {
	if d < 1 || capacity < 1 {
		panic(fmt.Sprintf("kernels: invalid maintained dims d=%d capacity=%d", d, capacity))
	}
	return &Maintained{
		X:           &linalg.Matrix{Rows: 0, Cols: d, Data: make([]float64, 0, d*capacity)},
		frac:        frac,
		tauOverride: tauOverride,
		norms:       make([]float64, 0, capacity),
	}
}

// N returns the current row count.
func (m *Maintained) N() int { return m.X.Rows }

// Synced reports whether K and Tau currently reflect X. Appending rows
// desynchronizes (the matrix changes dimension); Rebuild resynchronizes.
func (m *Maintained) Synced() bool { return m.synced }

// Append adds a row during the grow phase. The kernel matrix is NOT grown
// incrementally — growth changes every row's contribution to the scale
// heuristic anyway, so the next Rebuild (a full retrain) resynchronizes.
func (m *Maintained) Append(row []float64) {
	if len(row) != m.X.Cols {
		panic(fmt.Sprintf("kernels: appended row has %d features, want %d", len(row), m.X.Cols))
	}
	m.X.Data = append(m.X.Data, row...)
	m.X.Rows++
	m.norms = append(m.norms, linalg.Norm(row))
	m.synced = false
}

// Replace swaps the row at slot for a new one and, when synced, patches the
// kernel matrix in O(N·d): one fresh kernel row mirrored to its column.
func (m *Maintained) Replace(slot int, row []float64) {
	if slot < 0 || slot >= m.X.Rows {
		panic(fmt.Sprintf("kernels: replace slot %d out of range [0,%d)", slot, m.X.Rows))
	}
	if len(row) != m.X.Cols {
		panic(fmt.Sprintf("kernels: replacement row has %d features, want %d", len(row), m.X.Cols))
	}
	copy(m.X.Row(slot), row)
	m.norms[slot] = linalg.Norm(row)
	if !m.synced {
		return
	}
	defer obs.Span("kernels.maintained.replace")()
	maintainedReplaces.Inc()
	n := m.X.Rows
	kq := GetScratch(n)
	defer PutScratch(kq)
	CrossVectorInto(*kq, m.X, row, m.Tau)
	(*kq)[slot] = 1 // k(x, x) exactly, matching Matrix's diagonal
	for i, v := range *kq {
		m.K.Set(i, slot, v)
		m.K.Set(slot, i, v)
	}
}

// Rebuild recomputes τ from the heuristic (unless pinned) and the full
// kernel matrix from the current rows — the O(N²·d) path taken
// at first training, after window growth, and when the τ-drift guard fires.
// The N×N buffer is reused across rebuilds of the same size.
func (m *Maintained) Rebuild() {
	maintainedRebuilds.Inc()
	n := m.X.Rows
	if m.tauOverride > 0 {
		m.Tau = m.tauOverride
	} else {
		m.Tau = scaleFromNorms(m.norms, m.frac)
	}
	if m.K == nil || m.K.Rows != n {
		m.K = linalg.NewMatrix(n, n)
	}
	MatrixInto(m.K, m.X, m.Tau)
	m.synced = true
}

// TauCandidate returns the scale the heuristic would choose for the current
// rows — the value a full retrain would use.
func (m *Maintained) TauCandidate() float64 {
	if m.tauOverride > 0 {
		return m.tauOverride
	}
	return scaleFromNorms(m.norms, m.frac)
}

// Drifted reports whether the frozen τ has moved beyond the relative
// tolerance of the value the heuristic would now choose — the trigger for a
// full rebuild. A pinned τ never drifts.
func (m *Maintained) Drifted(tol float64) bool {
	if !m.synced {
		return true
	}
	if m.tauOverride > 0 {
		return false
	}
	cand := m.TauCandidate()
	d := cand - m.Tau
	if d < 0 {
		d = -d
	}
	return d > tol*m.Tau
}

// XClone returns a deep copy of the current rows (for embedding in an
// immutable trained model while the maintained rows keep mutating).
func (m *Maintained) XClone() *linalg.Matrix { return m.X.Clone() }
