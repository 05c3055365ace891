package kcca

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"

	"repro/internal/cca"
	"repro/internal/linalg"
)

// modelWire is the gob-encodable form of what training fitted (Model's
// projection internals are unexported by design); Load derives the rest
// through finish, as Train does. Files written by older builds also carry
// the training rows' query projection, a copy of the correlations, and
// before that the performance projection and the CCA's y-side weights; gob
// skips them. An older build refuses a file without the query projection.
type modelWire struct {
	X          *linalg.Matrix
	TauX, TauY float64
	RowMeansX  []float64
	GrandX     float64
	Ux         *linalg.Matrix
	Lamx       []float64
	CCA        *cca.Model
}

// Save serializes the model. The paper's deployment story (Fig. 1) has the
// vendor train models and ship them to customer sites; Save/Load is that
// shipping format.
func (m *Model) Save(w io.Writer) error {
	wire := modelWire{
		X: m.X, TauX: m.TauX, TauY: m.TauY,
		RowMeansX: m.rowMeansX, GrandX: m.grandX,
		Ux: m.ux, Lamx: m.lamx, CCA: m.ccaModel,
	}
	if err := gob.NewEncoder(w).Encode(&wire); err != nil {
		return fmt.Errorf("kcca: encoding model: %w", err)
	}
	return nil
}

// Load deserializes a model written by Save and derives the training
// queries' projection from it as Train does. The wire form is validated for
// full shape consistency before a Model is built: a truncated or
// hand-edited file must fail here with an error, not panic in the
// derivation or later deep in the linalg kernels when the model is first
// used.
func Load(r io.Reader) (*Model, error) {
	var wire modelWire
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		return nil, fmt.Errorf("kcca: decoding model: %w", err)
	}
	if err := wire.validate(); err != nil {
		return nil, err
	}
	return (&Model{
		X: wire.X, TauX: wire.TauX, TauY: wire.TauY,
		rowMeansX: wire.RowMeansX, grandX: wire.GrandX,
		ux: wire.Ux, lamx: wire.Lamx, ccaModel: wire.CCA,
	}).finish(scaledBasis(wire.Ux, wire.Lamx)), nil
}

// validate checks every invariant finish, ProjectQuery and the kNN
// pipeline rely on: structural matrix shapes, cross-matrix row/column
// agreement, and the positivity of the kernel scale and kernel-PCA
// eigenvalues (both are divided by or passed to panicking kernels).
func (w *modelWire) validate() error {
	for _, m := range []struct {
		name string
		mat  *linalg.Matrix
	}{
		{"X", w.X}, {"Ux", w.Ux},
	} {
		if err := m.mat.CheckShape(); err != nil {
			return fmt.Errorf("kcca: decoded model: %s: %w", m.name, err)
		}
	}
	n := w.X.Rows
	if n < 1 {
		return fmt.Errorf("kcca: decoded model has no training rows")
	}
	if w.Ux.Rows != n {
		return fmt.Errorf("kcca: decoded model row counts disagree: X=%d Ux=%d", n, w.Ux.Rows)
	}
	if len(w.RowMeansX) != n {
		return fmt.Errorf("kcca: decoded model has %d row means, want %d", len(w.RowMeansX), n)
	}
	if len(w.Lamx) != w.Ux.Cols {
		return fmt.Errorf("kcca: decoded model has %d eigenvalues for %d kernel-PCA components", len(w.Lamx), w.Ux.Cols)
	}
	for i, l := range w.Lamx {
		if !(l > 0) || math.IsInf(l, 0) {
			return fmt.Errorf("kcca: decoded model eigenvalue %d is %v, want positive and finite", i, l)
		}
	}
	if !(w.TauX > 0) || math.IsInf(w.TauX, 0) || !(w.TauY > 0) || math.IsInf(w.TauY, 0) {
		return fmt.Errorf("kcca: decoded model kernel scales (%v, %v) must be positive and finite", w.TauX, w.TauY)
	}
	if w.CCA == nil {
		return fmt.Errorf("kcca: decoded model has no CCA weights")
	}
	if err := w.CCA.WX.CheckShape(); err != nil {
		return fmt.Errorf("kcca: decoded model: CCA.WX: %w", err)
	}
	if len(w.CCA.MeanX) != w.Ux.Cols || w.CCA.WX.Rows != w.Ux.Cols {
		return fmt.Errorf("kcca: decoded model CCA input dims (mean %d, WX rows %d) do not match %d kernel-PCA components",
			len(w.CCA.MeanX), w.CCA.WX.Rows, w.Ux.Cols)
	}
	// Load allocates the N×d training projection: d ≤ components, as any fit
	// has, bounds it by what the file holds.
	if w.CCA.WX.Cols > w.CCA.WX.Rows {
		return fmt.Errorf("kcca: decoded model has %d canonical dims for %d kernel-PCA components", w.CCA.WX.Cols, w.CCA.WX.Rows)
	}
	return nil
}
