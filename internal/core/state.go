package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"

	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/frame"
	"repro/internal/workload"
)

// PlanFunc turns SQL text back into a planned query — the deterministic
// parse + optimize pipeline the serving layer runs on every /v1/observe.
// Restoring sliding state re-plans each retained query through it: plans
// and feature vectors are pure functions of (SQL, schema, data seed,
// planner config), so persisting the SQL alone reproduces them exactly.
type PlanFunc func(sql string) (*dataset.Query, error)

// ErrStateMismatch: a sliding-state snapshot was produced under a
// different configuration (capacity, retrain interval, or options) than
// the one restoring it. Matched with errors.Is.
var ErrStateMismatch = errors.New("core: saved sliding state does not match configuration")

// observationWire is one retained window entry: the SQL (re-planned on
// restore) and the measured metrics. Stored in ring-slot order, the order
// retrains train in.
type observationWire struct {
	SQL     string
	Metrics exec.Metrics
}

// slidingWire is the gob-encodable mirror of SlidingPredictor. Snapshots
// written by older builds also carry the kernel scales a retrain froze
// (Frozen) and the maintained kernels before them (IncState); gob skips
// both, since a retrain is a function of the window alone.
type slidingWire struct {
	Capacity     int
	RetrainEvery int
	Opt          Options
	Head         int
	Slots        []observationWire
	SinceTrain   int
	Retrains     int
	// ModelBytes is the published predictor in Save's framed format, nil
	// before the first training.
	ModelBytes []byte
}

// SaveState serializes the complete sliding-predictor state — window
// contents, retrain bookkeeping and published model — in the framed,
// checksummed container Load uses for models. It locks out Observe/Retrain
// for the duration (predictions are unaffected; they read an atomic
// pointer).
func (s *SlidingPredictor) SaveState(w io.Writer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	wire := slidingWire{
		Capacity:     s.capacity,
		RetrainEvery: s.retrainEvery,
		Opt:          s.opt,
		Head:         s.head,
		SinceTrain:   s.sinceTrain,
		Retrains:     s.retrains,
	}
	wire.Slots = make([]observationWire, s.size)
	for i := 0; i < s.size; i++ {
		wire.Slots[i] = observationWire{SQL: s.buf[i].SQL, Metrics: s.buf[i].Metrics}
	}
	if p := s.current.Load(); p != nil {
		var buf bytes.Buffer
		if err := p.Save(&buf); err != nil {
			return err
		}
		wire.ModelBytes = buf.Bytes()
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&wire); err != nil {
		return fmt.Errorf("core: encoding sliding state: %w", err)
	}
	return frame.Write(w, stateMagic, ModelFormatVersion, buf.Bytes())
}

// RestoreSliding rebuilds a SlidingPredictor from a SaveState snapshot.
// The caller passes its own configuration — which must match the one the
// snapshot was taken under (ErrStateMismatch otherwise; a daemon restarted
// with different flags must not silently serve a model trained under the
// old ones) — and a PlanFunc that re-plans each retained query through the
// same deterministic pipeline the observe path used.
func RestoreSliding(r io.Reader, capacity, retrainEvery int, opt Options, plan PlanFunc) (*SlidingPredictor, error) {
	payload, err := readFrame(r, stateMagic)
	if err != nil {
		return nil, err
	}
	var wire slidingWire
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&wire); err != nil {
		return nil, fmt.Errorf("%w: decoding sliding state: %v", ErrBadModelFile, err)
	}
	opt = normalizeOptions(opt)
	if wire.Capacity != capacity || wire.RetrainEvery != retrainEvery {
		return nil, fmt.Errorf("%w: snapshot window %d/%d, configured %d/%d",
			ErrStateMismatch, wire.Capacity, wire.RetrainEvery, capacity, retrainEvery)
	}
	if wire.Opt != opt {
		return nil, fmt.Errorf("%w: snapshot options %+v, configured %+v", ErrStateMismatch, wire.Opt, opt)
	}
	s, err := NewSliding(capacity, retrainEvery, opt)
	if err != nil {
		return nil, err
	}
	if len(wire.Slots) > capacity {
		return nil, fmt.Errorf("%w: snapshot holds %d queries for capacity %d",
			ErrBadModelFile, len(wire.Slots), capacity)
	}
	if wire.Head < 0 || (capacity > 0 && wire.Head >= capacity) {
		return nil, fmt.Errorf("%w: snapshot head %d out of range", ErrBadModelFile, wire.Head)
	}
	for i, ow := range wire.Slots {
		q, err := plan(ow.SQL)
		if err != nil {
			return nil, fmt.Errorf("core: re-planning restored query %d: %w", i, err)
		}
		q.Metrics = ow.Metrics
		q.Category = workload.Categorize(q.Metrics.ElapsedSec)
		s.buf[i] = q
	}
	s.size = len(wire.Slots)
	s.head = wire.Head
	s.sinceTrain = wire.SinceTrain
	s.retrains = wire.Retrains
	if wire.ModelBytes != nil {
		p, err := Load(bytes.NewReader(wire.ModelBytes))
		if err != nil {
			return nil, fmt.Errorf("core: restoring published model: %w", err)
		}
		s.current.Store(p)
	}
	return s, nil
}
