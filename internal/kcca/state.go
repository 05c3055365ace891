package kcca

import (
	"fmt"

	"repro/internal/kernels"
	"repro/internal/linalg"
)

// IncrementalState is the exported wire form of Incremental, for the
// durable serving state snapshots (internal/wal). Restoring it — rather
// than invalidating and forcing a full retrain — is what makes a recovered
// daemon's retrain path, and therefore its predictions, bit-identical to
// one that never restarted: the next retrain after recovery solves the same
// maintained kernels (from the same warm eigenbases, where the iterative
// solver serves the window's shape) as the uninterrupted process would.
type IncrementalState struct {
	Capacity     int
	MX, MY       *kernels.MaintainedState
	WarmX, WarmY *linalg.Matrix
	Stale        bool
}

// HasState reports whether the retrainer holds any maintained kernel state
// worth snapshotting.
func (inc *Incremental) HasState() bool { return inc.mx != nil }

// State captures the retrainer's full state for serialization, or nil if
// no rows have been seen yet. The returned struct shares the receiver's
// backing arrays: encode before the owner mutates again.
func (inc *Incremental) State() *IncrementalState {
	if inc.mx == nil {
		return nil
	}
	return &IncrementalState{
		Capacity: inc.capacity,
		MX:       inc.mx.State(),
		MY:       inc.my.State(),
		WarmX:    inc.warmX,
		WarmY:    inc.warmY,
		Stale:    inc.stale,
	}
}

// RestoreState rebuilds the maintained kernel and warm-start state from a
// decoded snapshot. opt and capacity come from the owner's configuration
// (they are not serialized here; the sliding predictor checks them against
// its own wire form). A nil state is a valid empty retrainer.
func (inc *Incremental) RestoreState(st *IncrementalState) error {
	if st == nil {
		inc.mx, inc.my = nil, nil
		inc.warmX, inc.warmY = nil, nil
		inc.stale = false
		return nil
	}
	mx, err := kernels.MaintainedFromState(st.MX)
	if err != nil {
		return fmt.Errorf("kcca: restoring X view: %w", err)
	}
	my, err := kernels.MaintainedFromState(st.MY)
	if err != nil {
		return fmt.Errorf("kcca: restoring Y view: %w", err)
	}
	if mx.N() != my.N() {
		return fmt.Errorf("kcca: restored views disagree on row count: X=%d Y=%d", mx.N(), my.N())
	}
	for _, w := range []struct {
		name string
		m    *linalg.Matrix
	}{{"WarmX", st.WarmX}, {"WarmY", st.WarmY}} {
		if w.m == nil {
			continue
		}
		if err := w.m.CheckShape(); err != nil {
			return fmt.Errorf("kcca: restored state: %s: %w", w.name, err)
		}
		// Warm eigenvectors date from the last completed retrain, so their
		// row count legitimately lags the maintained kernel between
		// retrains (the eigensolver ignores mismatched warm starts). Only
		// an impossible size is corruption.
		if w.m.Rows > st.Capacity {
			return fmt.Errorf("kcca: restored state: %s has %d rows for capacity %d", w.name, w.m.Rows, st.Capacity)
		}
	}
	inc.mx, inc.my = mx, my
	inc.warmX, inc.warmY = st.WarmX, st.WarmY
	inc.stale = st.Stale
	return nil
}
