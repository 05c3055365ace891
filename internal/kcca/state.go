package kcca

import (
	"fmt"

	"repro/internal/kernels"
)

// IncrementalState is the exported wire form of Incremental, for the
// durable serving state snapshots (internal/wal). Restoring it — rather
// than invalidating and forcing a full retrain — is what makes a recovered
// daemon's retrain path, and therefore its predictions, bit-identical to
// one that never restarted: the next retrain after recovery solves the same
// maintained kernels at the same frozen scales as the uninterrupted process
// would. Older snapshots also carry the window capacity and the warm
// eigenbases an iterative solver once started from; gob skips fields the
// type lacks, so they decode unchanged as long as no new field reuses one of
// those names with another type.
type IncrementalState struct {
	MX, MY *kernels.MaintainedState
	Stale  bool
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
		MX:    inc.mx.State(),
		MY:    inc.my.State(),
		Stale: inc.stale,
	}
}

// RestoreState rebuilds the maintained kernel state from a decoded
// snapshot. opt and capacity come from the owner's configuration (they are
// not serialized here; the sliding predictor checks them against its own
// wire form). A nil state is a valid empty retrainer.
func (inc *Incremental) RestoreState(st *IncrementalState) error {
	if st == nil {
		inc.mx, inc.my = nil, nil
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
	inc.mx, inc.my = mx, my
	inc.stale = st.Stale
	return nil
}
