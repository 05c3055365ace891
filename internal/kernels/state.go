package kernels

import (
	"fmt"

	"repro/internal/linalg"
)

// MaintainedState is the exported wire form of Maintained, for the durable
// serving state snapshots (internal/wal). It captures the complete state.
// Older snapshots also carry incremental row sums and their refresh counter;
// gob skips fields the type lacks, so they decode unchanged as long as no new
// field reuses one of those names with another type.
type MaintainedState struct {
	X           *linalg.Matrix
	K           *linalg.Matrix
	Tau         float64
	Frac        float64
	TauOverride float64
	Norms       []float64
	Synced      bool
}

// State captures the current state for serialization. The returned struct
// shares the receiver's backing arrays: callers must encode it before the
// owner mutates again (the sliding predictor snapshots under its lock).
func (m *Maintained) State() *MaintainedState {
	return &MaintainedState{
		X:           m.X,
		K:           m.K,
		Tau:         m.Tau,
		Frac:        m.frac,
		TauOverride: m.tauOverride,
		Norms:       m.norms,
		Synced:      m.synced,
	}
}

// MaintainedFromState reconstructs a Maintained from a decoded state,
// validating every shape invariant Replace/Rebuild and the retrain rely on so
// a corrupt or hand-edited snapshot fails here instead of panicking later.
func MaintainedFromState(st *MaintainedState) (*Maintained, error) {
	if st == nil {
		return nil, fmt.Errorf("kernels: nil maintained state")
	}
	if err := st.X.CheckShape(); err != nil {
		return nil, fmt.Errorf("kernels: restored state: X: %w", err)
	}
	n := st.X.Rows
	if len(st.Norms) != n {
		return nil, fmt.Errorf("kernels: restored state has %d norms for %d rows", len(st.Norms), n)
	}
	if st.Synced {
		if err := st.K.CheckShape(); err != nil {
			return nil, fmt.Errorf("kernels: restored state: K: %w", err)
		}
		if st.K.Rows != n || st.K.Cols != n {
			return nil, fmt.Errorf("kernels: restored state kernel is %dx%d for %d rows", st.K.Rows, st.K.Cols, n)
		}
		if !(st.Tau > 0) {
			return nil, fmt.Errorf("kernels: restored state kernel scale is %v, want positive", st.Tau)
		}
	}
	return &Maintained{
		X:           st.X,
		K:           st.K,
		Tau:         st.Tau,
		frac:        st.Frac,
		tauOverride: st.TauOverride,
		norms:       st.Norms,
		synced:      st.Synced,
	}, nil
}
