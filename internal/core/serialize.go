package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/exec"
	"repro/internal/frame"
	"repro/internal/kcca"
	"repro/internal/knn"
	"repro/internal/linalg"
	"repro/internal/workload"
)

// Model files are frames (internal/frame) so a truncated, bit-flipped, or
// different-format file fails fast with ErrBadModelFile instead of erroring
// opaquely deep inside gob decode (or decoding plausibly). Version 2 is the
// first framed format; version-1 files (raw gob, pre-header) are rejected
// with a migration hint.
const (
	modelMagic = "QPREDMDL"
	// ModelFormatVersion is the current model-file format. Bump on any
	// incompatible wire change.
	ModelFormatVersion = 2
	// stateMagic frames sliding-predictor state payloads (snapshots) in
	// the same container, distinguished by magic.
	stateMagic = "QPREDST1"
)

// ErrBadModelFile marks a model or state file that failed container
// validation: missing/mismatched magic, unsupported format version, short
// payload, checksum mismatch, or an undecodable payload. Matched with
// errors.Is.
var ErrBadModelFile = errors.New("core: invalid model file")

// readFrame reads one frame of the current format with the given magic,
// reporting every container violation as ErrBadModelFile.
func readFrame(r io.Reader, magic string) ([]byte, error) {
	payload, err := frame.Read(r, magic, ModelFormatVersion)
	switch {
	case errors.Is(err, frame.ErrMagic):
		return nil, fmt.Errorf("%w: %v (pre-v2 raw-gob files must be re-saved with this build)", ErrBadModelFile, err)
	case err != nil:
		return nil, fmt.Errorf("%w: %v", ErrBadModelFile, err)
	}
	return payload, nil
}

// predictorWire is the gob-encodable mirror of Predictor. The KCCA model
// is nested as its own Save() bytes so its unexported internals stay
// encapsulated.
type predictorWire struct {
	Opt         Options
	ModelBytes  []byte
	PerfRaw     *linalg.Matrix
	Cats        []workload.Category
	ConfScale   float64
	KernelScale float64
	Subs        map[workload.Category][]byte
}

// Save serializes the trained predictor (including two-step sub-models)
// so a vendor-trained model can be shipped to customer sites, as in the
// paper's Fig. 1 deployment. The output is framed with a magic header,
// format version, and payload CRC (nested sub-models recursively carry
// their own frames), so Load detects truncation and corruption instead of
// trusting whatever gob makes of the bytes.
func (p *Predictor) Save(w io.Writer) error {
	wire, err := p.toWire()
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(wire); err != nil {
		return fmt.Errorf("core: encoding predictor: %w", err)
	}
	return frame.Write(w, modelMagic, ModelFormatVersion, buf.Bytes())
}

func (p *Predictor) toWire() (*predictorWire, error) {
	var modelBuf bytes.Buffer
	if err := p.model.Save(&modelBuf); err != nil {
		return nil, err
	}
	wire := &predictorWire{
		Opt:         p.opt,
		ModelBytes:  modelBuf.Bytes(),
		PerfRaw:     p.perfRaw,
		Cats:        p.cats,
		ConfScale:   p.confScale,
		KernelScale: p.kernelScale,
	}
	if p.sub != nil {
		wire.Subs = map[workload.Category][]byte{}
		for c, sp := range p.sub {
			var buf bytes.Buffer
			if err := sp.Save(&buf); err != nil {
				return nil, err
			}
			wire.Subs[c] = buf.Bytes()
		}
	}
	return wire, nil
}

// Load deserializes a predictor written by Save. Container violations
// (magic, version, truncation, checksum, undecodable gob) report
// ErrBadModelFile; a well-formed file whose decoded content breaks a model
// invariant reports a descriptive validation error.
func Load(r io.Reader) (*Predictor, error) {
	payload, err := readFrame(r, modelMagic)
	if err != nil {
		return nil, err
	}
	var wire predictorWire
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&wire); err != nil {
		return nil, fmt.Errorf("%w: decoding predictor: %v", ErrBadModelFile, err)
	}
	return fromWire(&wire)
}

func fromWire(wire *predictorWire) (*Predictor, error) {
	model, err := kcca.Load(bytes.NewReader(wire.ModelBytes))
	if err != nil {
		return nil, err
	}
	// Validate everything PredictVector touches: the raw metric matrix must
	// be structurally sound and row-aligned with the model, the category
	// slice must cover every neighbor index the two-step vote can produce,
	// and the confidence scales are divided by (so they must be positive
	// and finite). A hand-edited or truncated file fails here with an
	// error instead of panicking deep in linalg.
	if err := wire.PerfRaw.CheckShape(); err != nil {
		return nil, fmt.Errorf("core: decoded predictor: performance matrix: %w", err)
	}
	if wire.PerfRaw.Rows != model.N() {
		return nil, fmt.Errorf("core: decoded predictor has %d metric rows for %d training queries",
			wire.PerfRaw.Rows, model.N())
	}
	if wire.PerfRaw.Cols != exec.NumMetrics {
		return nil, fmt.Errorf("core: decoded predictor has %d metric columns, want %d",
			wire.PerfRaw.Cols, exec.NumMetrics)
	}
	if len(wire.Cats) != model.N() {
		return nil, fmt.Errorf("core: decoded predictor has %d categories for %d training queries",
			len(wire.Cats), model.N())
	}
	if !(wire.ConfScale > 0) || math.IsInf(wire.ConfScale, 0) ||
		!(wire.KernelScale > 0) || math.IsInf(wire.KernelScale, 0) {
		return nil, fmt.Errorf("core: decoded predictor confidence scales (%v, %v) must be positive and finite",
			wire.ConfScale, wire.KernelScale)
	}
	p := &Predictor{
		opt:         wire.Opt,
		model:       model,
		perfRaw:     wire.PerfRaw,
		cats:        wire.Cats,
		confScale:   wire.ConfScale,
		kernelScale: wire.KernelScale,
		cache:       newProjCache(0),
		index:       knn.NewIndex(model.QueryProj, wire.Opt.KNN.Distance),
	}
	if wire.Subs != nil {
		p.sub = map[workload.Category]*Predictor{}
		for c, raw := range wire.Subs {
			sp, err := Load(bytes.NewReader(raw))
			if err != nil {
				return nil, err
			}
			p.sub[c] = sp
		}
	}
	return p, nil
}
