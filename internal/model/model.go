// Package model defines the serving tier's model abstraction: a
// Model/Trainer interface pair that every predictor kind satisfies, so any
// kind can occupy a generation slot in the hot-swap machinery. Three kinds
// ship today:
//
//   - "kcca"       — the paper's KCCA + kNN pipeline (wraps core.Predictor)
//   - "planstruct" — a plan-structured per-operator predictor in the style
//     of Marcus & Negi: one small learned unit per optimizer plan-node
//     type, composed bottom-up along the plan tree
//   - "optcost"    — calibrated optimizer-cost regression in the style of
//     Kleerekoper et al.: each metric regressed on the scalar plan cost
//
// Saved models share one self-describing container (an internal/frame with
// magic "QPREDZOO") whose payload records the kind, so Load dispatches to the
// right decoder without the caller knowing what was saved. Pre-zoo KCCA
// model files (magic "QPREDMDL") load transparently as the "kcca" kind.
package model

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/frame"
)

// Model is a trained predictor of any kind. Implementations are immutable
// after training, so a Model may serve concurrent Predict calls with no
// locking — the property the atomic hot-swap slots rely on.
type Model interface {
	// Kind identifies the model family ("kcca", "planstruct", "optcost").
	Kind() string
	// N is the number of training observations the model was fitted on.
	N() int
	// Predict evaluates every request and returns one Result per request,
	// positionally. A failed request carries its error in its own Result.
	Predict(reqs ...core.Request) []core.Result
	// Save writes the model in the self-describing zoo container; Load
	// reverses it for any kind.
	Save(w io.Writer) error
	// Fingerprint is a stable hash of the model's learned parameters —
	// stable across Save/Load round trips and across processes (it hashes
	// canonical parameter bits, never encoder output, because gob map
	// encoding is nondeterministic). Two models with equal fingerprints
	// make identical predictions.
	Fingerprint() uint64
}

// Trainer fits a Model of one kind from labeled queries.
type Trainer interface {
	// Kind is the kind of Model this trainer produces.
	Kind() string
	// Train fits a model on the queries. Implementations must not retain
	// the slice.
	Train(qs []*dataset.Query) (Model, error)
}

// Registered kind names.
const (
	KindKCCA       = "kcca"
	KindPlanStruct = "planstruct"
	KindOptCost    = "optcost"
)

// ErrUnknownKind marks a kind name with no registered trainer or loader.
// Matched with errors.Is.
var ErrUnknownKind = errors.New("model: unknown model kind")

// NewTrainer returns the trainer for a kind. The core options parameterize
// the KCCA pipeline; the other kinds take their (few) knobs from defaults.
func NewTrainer(kind string, opt core.Options) (Trainer, error) {
	switch kind {
	case KindKCCA:
		return &KCCATrainer{Opt: opt}, nil
	case KindPlanStruct:
		return &PlanStructTrainer{}, nil
	case KindOptCost:
		return &OptCostTrainer{}, nil
	default:
		return nil, fmt.Errorf("%w: %q (have %v)", ErrUnknownKind, kind, Kinds())
	}
}

// Kinds lists every registered model kind, sorted.
func Kinds() []string {
	out := []string{KindKCCA, KindPlanStruct, KindOptCost}
	sort.Strings(out)
	return out
}

// Zoo model files are frames (internal/frame) with their own magic, and the
// payload is a kind-tagged envelope so Load can dispatch.
const (
	zooMagic = "QPREDZOO"
	// FormatVersion is the zoo container format. Bump on any incompatible
	// wire change.
	FormatVersion = 1
)

// ErrBadModelFile marks a zoo model file that failed container validation.
// Matched with errors.Is.
var ErrBadModelFile = errors.New("model: invalid model file")

// envelope is the kind-tagged payload inside the zoo frame.
type envelope struct {
	Kind    string
	Payload []byte
}

// saveEnvelope frames a kind-tagged payload into w.
func saveEnvelope(w io.Writer, kind string, payload []byte) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&envelope{Kind: kind, Payload: payload}); err != nil {
		return fmt.Errorf("model: encoding %s envelope: %w", kind, err)
	}
	return frame.Write(w, zooMagic, FormatVersion, buf.Bytes())
}

// Load reads any saved model — zoo-framed files of every kind, plus legacy
// core KCCA files ("QPREDMDL"), which load as the "kcca" kind so model
// files written before the zoo keep working.
func Load(r io.Reader) (Model, error) {
	br := bufio.NewReader(r)
	if magic, _ := br.Peek(len(zooMagic)); string(magic) != zooMagic {
		// Not a zoo file: the core loader validates its own magic and
		// reports its own errors.
		p, err := core.Load(br)
		if err != nil {
			return nil, err
		}
		return WrapKCCA(p), nil
	}
	body, err := frame.Read(br, zooMagic, FormatVersion)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadModelFile, err)
	}
	var env envelope
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&env); err != nil {
		return nil, fmt.Errorf("%w: decoding envelope: %v", ErrBadModelFile, err)
	}
	switch env.Kind {
	case KindKCCA:
		p, err := core.Load(bytes.NewReader(env.Payload))
		if err != nil {
			return nil, err
		}
		return WrapKCCA(p), nil
	case KindPlanStruct:
		return loadPlanStruct(env.Payload)
	case KindOptCost:
		return loadOptCost(env.Payload)
	default:
		return nil, fmt.Errorf("%w: %q in model file", ErrUnknownKind, env.Kind)
	}
}

// fingerprinter accumulates an FNV-1a hash over canonical parameter bits.
// float64s hash by IEEE bit pattern with NaNs normalized, so fingerprints
// are stable across processes and save/load round trips.
type fingerprinter struct {
	h interface {
		io.Writer
		Sum64() uint64
	}
	buf [8]byte
}

func newFingerprinter(kind string) *fingerprinter {
	fp := &fingerprinter{h: fnv.New64a()}
	io.WriteString(fp.h, kind)
	return fp
}

func (fp *fingerprinter) addUint64(v uint64) {
	binary.LittleEndian.PutUint64(fp.buf[:], v)
	fp.h.Write(fp.buf[:])
}

func (fp *fingerprinter) addInt(v int) { fp.addUint64(uint64(int64(v))) }

func (fp *fingerprinter) addFloat(v float64) {
	if math.IsNaN(v) {
		v = math.NaN() // canonical NaN bit pattern
	}
	fp.addUint64(math.Float64bits(v))
}

func (fp *fingerprinter) addFloats(vs []float64) {
	fp.addInt(len(vs))
	for _, v := range vs {
		fp.addFloat(v)
	}
}

func (fp *fingerprinter) sum() uint64 { return fp.h.Sum64() }
