package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"runtime"
	"strings"
	"testing"

	"repro/internal/frame"
	"repro/internal/workload"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	train, test := trainTest(t)
	p, err := Train(train, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.N() != p.N() {
		t.Fatalf("N = %d, want %d", loaded.N(), p.N())
	}
	// Predictions must be bit-identical.
	for _, q := range test {
		a, err := p.PredictQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := loaded.PredictQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		if a.Metrics != b.Metrics || a.Confidence != b.Confidence || a.Category != b.Category {
			t.Fatalf("prediction changed after round trip:\n%+v\n%+v", a, b)
		}
	}
}

func TestSaveLoadTwoStep(t *testing.T) {
	train, test := trainTest(t)
	opt := DefaultOptions()
	opt.TwoStep = true
	p, err := Train(train, opt)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.sub) != len(p.sub) {
		t.Fatalf("sub-models = %d, want %d", len(loaded.sub), len(p.sub))
	}
	for _, q := range test[:5] {
		a, _ := p.PredictQuery(q)
		b, _ := loaded.PredictQuery(q)
		if a.Metrics != b.Metrics || a.Category != b.Category {
			t.Fatal("two-step prediction changed after round trip")
		}
	}
}

// TestLoadRejectsMismatchedSubModel: a two-step file whose type model takes
// other features than the predictor, or is itself two-step, is refused at
// Load with an error naming the type model, instead of loading and then
// panicking on the first prediction routed to it.
func TestLoadRejectsMismatchedSubModel(t *testing.T) {
	train, _ := trainTest(t)
	opt := DefaultOptions()
	opt.TwoStep = true
	p, err := Train(train, opt)
	if err != nil {
		t.Fatal(err)
	}
	sqlOpt := DefaultOptions()
	sqlOpt.Features = SQLFeatures
	sqlModel, err := Train(train[:60], sqlOpt)
	if err != nil {
		t.Fatal(err)
	}
	nested, err := Train(train[:120], opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.sub) == 0 || len(nested.sub) == 0 {
		t.Fatal("the two-step fixtures have no type models")
	}
	// The SQL-feature model labelled as a plan-feature one: only its width
	// gives it away.
	mislabelled := *sqlModel
	mislabelled.opt.Features = PlanFeatures
	for _, tc := range []struct {
		name string
		sub  *Predictor
		want string
	}{
		{"SQL-feature type model", sqlModel, "features"},
		{"plan-labelled type model over SQL features", &mislabelled, "takes 9 features (query-plan)"},
		{"two-step type model", nested, "itself two-step"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := *p
			bad.sub = map[workload.Category]*Predictor{}
			for c, sp := range p.sub {
				bad.sub[c] = sp
			}
			for c := range p.sub {
				bad.sub[c] = tc.sub
				break
			}
			var buf bytes.Buffer
			if err := bad.Save(&buf); err != nil {
				t.Fatal(err)
			}
			_, err := Load(&buf)
			if err == nil {
				t.Fatal("a two-step model with a mismatched type model loaded")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not say %q", err, tc.want)
			}
		})
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(strings.NewReader("garbage")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Load(strings.NewReader("")); err == nil {
		t.Error("empty input accepted")
	}
}

// TestLoadRejectsCorruptWire hand-corrupts each validated field of the wire
// form and checks Load fails with an error instead of panicking later.
func TestLoadRejectsCorruptWire(t *testing.T) {
	train, _ := trainTest(t)
	p, err := Train(train[:40], DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	base, err := p.toWire()
	if err != nil {
		t.Fatal(err)
	}
	// encode produces a well-framed v2 model file around the (possibly
	// corrupted) wire payload, so these cases exercise the semantic
	// validation behind an intact frame.
	encode := func(w *predictorWire) []byte {
		var payload bytes.Buffer
		if err := gob.NewEncoder(&payload).Encode(w); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := frame.Write(&buf, modelMagic, ModelFormatVersion, payload.Bytes()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	cases := []struct {
		name    string
		corrupt func(w *predictorWire)
	}{
		{"truncated metric data", func(w *predictorWire) {
			m := *w.PerfRaw
			m.Data = m.Data[:len(m.Data)-3]
			w.PerfRaw = &m
		}},
		{"metric rows disagree with model", func(w *predictorWire) {
			m := *w.PerfRaw
			m.Rows--
			m.Data = m.Data[:m.Rows*m.Cols]
			w.PerfRaw = &m
		}},
		{"wrong metric column count", func(w *predictorWire) {
			m := *w.PerfRaw
			m.Cols = 2
			m.Data = m.Data[:m.Rows*m.Cols]
			w.PerfRaw = &m
		}},
		{"missing categories", func(w *predictorWire) { w.Cats = w.Cats[:3] }},
		{"truncated nested model bytes", func(w *predictorWire) { w.ModelBytes = w.ModelBytes[:len(w.ModelBytes)/2] }},
		{"empty nested model bytes", func(w *predictorWire) { w.ModelBytes = nil }},
	}
	for _, tc := range cases {
		w := *base
		tc.corrupt(&w)
		if _, err := Load(bytes.NewReader(encode(&w))); err == nil {
			t.Errorf("%s: corrupted model loaded without error", tc.name)
		}
	}
	// The uncorrupted wire must still load (the cases above fail for the
	// right reason, not because of the re-encoding).
	if _, err := Load(bytes.NewReader(encode(base))); err != nil {
		t.Fatalf("pristine re-encoded model rejected: %v", err)
	}
}

// TestLoadRejectsCorruptFrame corrupts the v2 container itself — magic,
// version, length, payload bytes, CRC — and checks every case fails with
// ErrBadModelFile instead of a decode panic or a silently wrong model.
func TestLoadRejectsCorruptFrame(t *testing.T) {
	train, _ := trainTest(t)
	p, err := Train(train[:40], DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var saved bytes.Buffer
	if err := p.Save(&saved); err != nil {
		t.Fatal(err)
	}
	valid := saved.Bytes()
	clone := func() []byte { return append([]byte(nil), valid...) }

	legacy := func() []byte {
		// The pre-v2 format: a raw gob stream with no header at all.
		w, err := p.toWire()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(w); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}()

	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"short header", valid[:frame.HeaderLen-1]},
		{"pre-v2 raw gob", legacy},
		{"bad magic", func() []byte { b := clone(); b[0] ^= 0xff; return b }()},
		{"future version", func() []byte {
			b := clone()
			binary.LittleEndian.PutUint32(b[8:12], ModelFormatVersion+1)
			return b
		}()},
		{"oversized length", func() []byte {
			b := clone()
			binary.LittleEndian.PutUint64(b[12:20], frame.MaxPayload+1)
			return b
		}()},
		{"truncated payload", valid[:len(valid)-1]},
		{"payload bit flip", func() []byte {
			b := clone()
			b[frame.HeaderLen+len(b)/2] ^= 0x01
			return b
		}()},
		{"crc bit flip", func() []byte {
			b := clone()
			b[frame.HeaderLen-1] ^= 0x01
			return b
		}()},
		{"wrong magic kind", func() []byte {
			// A sliding-state frame is not a model file, even if intact.
			b := clone()
			copy(b[:8], stateMagic)
			return b
		}()},
	}
	for _, tc := range cases {
		_, err := Load(bytes.NewReader(tc.data))
		if err == nil {
			t.Errorf("%s: corrupt frame loaded without error", tc.name)
			continue
		}
		if !errors.Is(err, ErrBadModelFile) {
			t.Errorf("%s: error %v is not ErrBadModelFile", tc.name, err)
		}
	}
	if _, err := Load(bytes.NewReader(valid)); err != nil {
		t.Fatalf("pristine model rejected: %v", err)
	}
}

// hugeFrame is a bare frame header of the current format that declares
// 2^30 − 1 payload bytes — just inside the limit — and carries none.
func hugeFrame(magic string) []byte {
	hdr := make([]byte, frame.HeaderLen)
	copy(hdr, magic)
	binary.LittleEndian.PutUint32(hdr[8:], ModelFormatVersion)
	binary.LittleEndian.PutUint64(hdr[12:], frame.MaxPayload-1)
	return hdr
}

// allocated reports how many heap bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestLoadBoundsDeclaredLength: what a frame's header declares does not
// decide what reading it allocates. A 24-byte model file or sliding-state
// frame (the inner frame a snapshot carries on recovery) that claims a
// gigabyte fails as a short payload having allocated about what it holds.
func TestLoadBoundsDeclaredLength(t *testing.T) {
	for name, load := range map[string]func() error{
		"model file": func() error {
			_, err := Load(bytes.NewReader(hugeFrame(modelMagic)))
			return err
		},
		"sliding state": func() error {
			_, err := RestoreSliding(bytes.NewReader(hugeFrame(stateMagic)), 60, 30, DefaultOptions(), nil)
			return err
		},
	} {
		var err error
		if n := allocated(func() { err = load() }); n >= 1<<20 {
			t.Errorf("%s: allocated %d bytes for a 24-byte file", name, n)
		}
		if !errors.Is(err, ErrBadModelFile) || !strings.Contains(err.Error(), "short payload") {
			t.Errorf("%s: error %v, want ErrBadModelFile for a short payload", name, err)
		}
	}
}
