package model

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/frame"
	"repro/internal/workload"
)

// Shared fixture: one generated pool (generation dominates test time).
var (
	fixOnce sync.Once
	fixPool *dataset.Dataset
	fixErr  error
)

const (
	fixSeed     = 7
	fixDataSeed = 42
	fixTrainN   = 110
)

func fixture(t testing.TB) *dataset.Dataset {
	t.Helper()
	fixOnce.Do(func() {
		fixPool, fixErr = dataset.Generate(dataset.GenConfig{
			Seed: fixSeed, DataSeed: fixDataSeed, Machine: exec.Research4(),
			Schema: catalog.TPCDS(1), Templates: workload.TPCDSTemplates(), Count: 150,
		})
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fixPool
}

func splits(t testing.TB) (train, test []*dataset.Query) {
	pool := fixture(t)
	return pool.Queries[:fixTrainN], pool.Queries[fixTrainN:]
}

func metricVals(m exec.Metrics) []float64 {
	return []float64{m.ElapsedSec, m.RecordsAccessed, m.RecordsUsed,
		m.DiskIOs, m.MessageCount, m.MessageBytes}
}

func requests(qs []*dataset.Query) []core.Request {
	reqs := make([]core.Request, len(qs))
	for i, q := range qs {
		reqs[i] = core.Request{Query: q}
	}
	return reqs
}

// samePredictions asserts two result slices are bit-identical: same
// metrics, category, and confidence in every slot.
func samePredictions(t *testing.T, got, want []core.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if (g.Err == nil) != (w.Err == nil) {
			t.Fatalf("result %d: error mismatch: got %v, want %v", i, g.Err, w.Err)
		}
		if g.Err != nil {
			continue
		}
		if g.Prediction.Metrics != w.Prediction.Metrics {
			t.Fatalf("result %d: metrics differ:\n got %+v\nwant %+v", i, g.Prediction.Metrics, w.Prediction.Metrics)
		}
		if g.Prediction.Category != w.Prediction.Category {
			t.Fatalf("result %d: category %v != %v", i, g.Prediction.Category, w.Prediction.Category)
		}
		if g.Prediction.Confidence != w.Prediction.Confidence {
			t.Fatalf("result %d: confidence %v != %v", i, g.Prediction.Confidence, w.Prediction.Confidence)
		}
	}
}

// TestConformance is the shared conformance suite every registered model
// kind must pass: train on a fixture workload, predict sane values for
// unseen planned queries, survive a save/load round trip bit-identically,
// and report a stable fingerprint that the round trip preserves.
func TestConformance(t *testing.T) {
	train, test := splits(t)
	for _, kind := range Kinds() {
		t.Run(kind, func(t *testing.T) {
			tr, err := NewTrainer(kind, core.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if tr.Kind() != kind {
				t.Fatalf("trainer kind %q, want %q", tr.Kind(), kind)
			}
			m, err := tr.Train(train)
			if err != nil {
				t.Fatal(err)
			}
			if m.Kind() != kind {
				t.Fatalf("model kind %q, want %q", m.Kind(), kind)
			}
			if m.N() <= 0 {
				t.Fatalf("model reports N=%d after training on %d queries", m.N(), len(train))
			}

			reqs := requests(test)
			res := m.Predict(reqs...)
			if len(res) != len(test) {
				t.Fatalf("got %d results for %d requests", len(res), len(test))
			}
			for i, r := range res {
				if r.Err != nil {
					t.Fatalf("query %d: %v", i, r.Err)
				}
				p := r.Prediction
				if p == nil {
					t.Fatalf("query %d: nil prediction without error", i)
				}
				if !(p.Confidence > 0 && p.Confidence <= 1) {
					t.Errorf("query %d: confidence %v outside (0, 1]", i, p.Confidence)
				}
				for mi, v := range metricVals(p.Metrics) {
					if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
						t.Errorf("query %d metric %d: bad prediction %v", i, mi, v)
					}
				}
			}

			fp := m.Fingerprint()
			if m.Fingerprint() != fp {
				t.Fatal("fingerprint is not stable across calls")
			}

			var buf bytes.Buffer
			if err := m.Save(&buf); err != nil {
				t.Fatal(err)
			}
			m2, err := Load(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if m2.Kind() != kind {
				t.Fatalf("loaded kind %q, want %q", m2.Kind(), kind)
			}
			if m2.N() != m.N() {
				t.Fatalf("loaded N=%d, want %d", m2.N(), m.N())
			}
			if m2.Fingerprint() != fp {
				t.Fatalf("fingerprint changed across save/load: %#x != %#x", m2.Fingerprint(), fp)
			}
			samePredictions(t, m2.Predict(reqs...), res)

			// A flipped payload byte must fail checksum validation, never
			// load a silently different model.
			corrupt := bytes.Clone(buf.Bytes())
			corrupt[len(corrupt)-1] ^= 0xff
			if _, err := Load(bytes.NewReader(corrupt)); !errors.Is(err, ErrBadModelFile) {
				t.Fatalf("corrupted file: got %v, want ErrBadModelFile", err)
			}

			// Truncated container: the frame header promises more payload
			// than the file holds.
			if _, err := Load(bytes.NewReader(buf.Bytes()[:buf.Len()/2])); err == nil {
				t.Fatal("truncated file loaded without error")
			}
		})
	}
}

// TestTrainerDeterminism: the same window trains to the same fingerprint —
// what makes promoted-model bit-identity assertions meaningful.
func TestTrainerDeterminism(t *testing.T) {
	train, _ := splits(t)
	for _, kind := range Kinds() {
		t.Run(kind, func(t *testing.T) {
			tr, err := NewTrainer(kind, core.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			a, err := tr.Train(train)
			if err != nil {
				t.Fatal(err)
			}
			b, err := tr.Train(train)
			if err != nil {
				t.Fatal(err)
			}
			if a.Fingerprint() != b.Fingerprint() {
				t.Fatalf("two trainings of the same window disagree: %#x != %#x",
					a.Fingerprint(), b.Fingerprint())
			}
		})
	}
}

// TestFingerprintDistinguishesKinds: different kinds trained on the same
// window must not collide (kind is hashed in).
func TestFingerprintDistinguishesKinds(t *testing.T) {
	train, _ := splits(t)
	seen := map[uint64]string{}
	for _, kind := range Kinds() {
		tr, err := NewTrainer(kind, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		m, err := tr.Train(train)
		if err != nil {
			t.Fatal(err)
		}
		fp := m.Fingerprint()
		if prev, ok := seen[fp]; ok {
			t.Fatalf("kinds %s and %s share fingerprint %#x", prev, kind, fp)
		}
		seen[fp] = kind
	}
}

// TestLoadLegacyFile: a pre-zoo model file (core.Predictor.Save's QPREDMDL
// framing) still loads, comes back as the KCCA kind, and predicts
// bit-identically to the predictor that wrote it.
func TestLoadLegacyFile(t *testing.T) {
	train, test := splits(t)
	p, err := core.Train(train, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	k, ok := m.(*KCCA)
	if !ok || m.Kind() != KindKCCA {
		t.Fatalf("legacy file loaded as %T (%s), want *KCCA", m, m.Kind())
	}
	if k.N() != p.N() {
		t.Fatalf("loaded N=%d, want %d", k.N(), p.N())
	}
	reqs := requests(test)
	samePredictions(t, m.Predict(reqs...), p.Predict(reqs...))
}

// TestZooFrameGolden: a zoo file written by the commit before internal/frame
// (an optcost envelope around the frame goldens' payload) reads back: Load
// takes it through the frame and the envelope to the optcost decoder, which
// rejects a payload that is not an optcost model. That the zoo frame is
// written byte for byte is internal/frame's TestGoldenFrames; the envelope's
// own bytes depend on the order gob met its types in the process.
func TestZooFrameGolden(t *testing.T) {
	golden, err := os.ReadFile("../frame/testdata/zoo.frame")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bytes.NewReader(golden)); !errors.Is(err, ErrBadModelFile) || !strings.Contains(err.Error(), "decoding optcost") {
		t.Fatalf("Load: %v, want the optcost decoder's error", err)
	}
}

// TestLoadBoundsDeclaredLength: a 24-byte zoo file that claims 2^30 − 1
// payload bytes fails as a short payload having allocated about what it
// holds, not the gigabyte it declares.
func TestLoadBoundsDeclaredLength(t *testing.T) {
	var hdr bytes.Buffer
	if err := frame.Write(&hdr, zooMagic, FormatVersion, nil); err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint64(hdr.Bytes()[12:], frame.MaxPayload-1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Load(bytes.NewReader(hdr.Bytes()))
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Errorf("allocated %d bytes for a 24-byte file", n)
	}
	if !errors.Is(err, ErrBadModelFile) || !strings.Contains(err.Error(), "short payload") {
		t.Errorf("error %v, want ErrBadModelFile for a short payload", err)
	}
}

func TestUnknownKind(t *testing.T) {
	if _, err := NewTrainer("nope", core.DefaultOptions()); !errors.Is(err, ErrUnknownKind) {
		t.Fatalf("got %v, want ErrUnknownKind", err)
	}
}

// TestPlanStructNeedsPlan: the plan-structured kinds fail cleanly on an
// unplanned query instead of panicking.
func TestPlanlessQueryFails(t *testing.T) {
	train, _ := splits(t)
	for _, kind := range []string{KindPlanStruct, KindOptCost} {
		tr, err := NewTrainer(kind, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		m, err := tr.Train(train)
		if err != nil {
			t.Fatal(err)
		}
		res := m.Predict(core.Request{Query: &dataset.Query{SQL: "SELECT 1"}})
		if res[0].Err == nil {
			t.Fatalf("%s: predicting an unplanned query succeeded", kind)
		}
	}
}
