package core

import (
	"bytes"
	"encoding/gob"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/linalg"
	"repro/internal/testutil"
	"repro/internal/workload"
)

// storedPredictorWire and storedModelWire read, out of a model file an
// older build wrote, the values that build stored and Load now derives:
// the predictor's confidence scales and its KCCA model's training
// projection (gob skips every other field).
type storedPredictorWire struct {
	ModelBytes  []byte
	ConfScale   float64
	KernelScale float64
	Subs        map[workload.Category][]byte
}

type storedModelWire struct {
	QueryProj *linalg.Matrix
}

// derived is what a Predictor holds beyond what training fitted, for one
// predictor and each of its type models.
type derived struct {
	proj                   *linalg.Matrix
	confScale, kernelScale float64
	subs                   map[workload.Category]derived
}

func derivedOf(p *Predictor) derived {
	d := derived{proj: p.model.QueryProj, confScale: p.confScale, kernelScale: p.kernelScale}
	if p.sub != nil {
		d.subs = map[workload.Category]derived{}
		for c, sp := range p.sub {
			d.subs[c] = derivedOf(sp)
		}
	}
	return d
}

// storedIn decodes the derived values a model file of an older build holds.
func storedIn(t *testing.T, file []byte) derived {
	t.Helper()
	payload, err := readFrame(bytes.NewReader(file), modelMagic)
	if err != nil {
		t.Fatal(err)
	}
	var pw storedPredictorWire
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&pw); err != nil {
		t.Fatal(err)
	}
	var mw storedModelWire
	if err := gob.NewDecoder(bytes.NewReader(pw.ModelBytes)).Decode(&mw); err != nil {
		t.Fatal(err)
	}
	if mw.QueryProj == nil {
		t.Fatal("the file stores no training projection")
	}
	d := derived{proj: mw.QueryProj, confScale: pw.ConfScale, kernelScale: pw.KernelScale}
	if pw.Subs != nil {
		d.subs = map[workload.Category]derived{}
		for c, raw := range pw.Subs {
			d.subs[c] = storedIn(t, raw)
		}
	}
	return d
}

// sameDerived fails unless got and want hold the same bits, type models
// included.
func sameDerived(t *testing.T, ctx string, got, want derived) {
	t.Helper()
	if got.proj.Rows != want.proj.Rows || got.proj.Cols != want.proj.Cols {
		t.Fatalf("%s: projection %dx%d, want %dx%d", ctx, got.proj.Rows, got.proj.Cols, want.proj.Rows, want.proj.Cols)
	}
	for i, v := range want.proj.Data {
		if math.Float64bits(got.proj.Data[i]) != math.Float64bits(v) {
			t.Fatalf("%s: projection element %d = %v, want %v", ctx, i, got.proj.Data[i], v)
		}
	}
	if math.Float64bits(got.confScale) != math.Float64bits(want.confScale) ||
		math.Float64bits(got.kernelScale) != math.Float64bits(want.kernelScale) {
		t.Fatalf("%s: confidence scales (%v, %v), want (%v, %v)", ctx,
			got.confScale, got.kernelScale, want.confScale, want.kernelScale)
	}
	if len(got.subs) != len(want.subs) {
		t.Fatalf("%s: %d type models, want %d", ctx, len(got.subs), len(want.subs))
	}
	for c, w := range want.subs {
		g, ok := got.subs[c]
		if !ok {
			t.Fatalf("%s: no %v type model", ctx, c)
		}
		sameDerived(t, ctx+"/"+c.String(), g, w)
	}
}

// snapshotModel returns the model file inside a sliding-state snapshot,
// given either as the state frame itself or as a WAL snapshot file, whose
// 28-byte header (internal/wal/snapshot.go: magic, sequence, generation,
// CRC) precedes that frame.
func snapshotModel(t *testing.T, file []byte) []byte {
	t.Helper()
	if bytes.HasPrefix(file, []byte("QSNAP001")) {
		file = file[28:]
	}
	payload, err := readFrame(bytes.NewReader(file), stateMagic)
	if err != nil {
		t.Fatal(err)
	}
	var w slidingWire
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&w); err != nil {
		t.Fatal(err)
	}
	if w.ModelBytes == nil {
		t.Fatal("the snapshot holds no model")
	}
	return w.ModelBytes
}

// TestLoadDerivesWhatFilesStored: the training projection and both
// confidence scales, which model files no longer carry, come out of Load
// bit for bit as the files that did carry them stored them — the model
// files and snapshots of older builds, type models included — and as Train
// computed them for a fresh stock model and a fresh two-step one.
func TestLoadDerivesWhatFilesStored(t *testing.T) {
	load := func(t *testing.T, file []byte) derived {
		t.Helper()
		p, err := Load(bytes.NewReader(file))
		if err != nil {
			t.Fatal(err)
		}
		return derivedOf(p)
	}
	read := func(t *testing.T, path string) []byte {
		t.Helper()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	t.Run("older builds' files", func(t *testing.T) {
		if runtime.GOARCH != "amd64" {
			t.Skipf("fixtures were written on amd64, this is %s", runtime.GOARCH)
		}
		zoo, err := filepath.Glob("../../cmd/qpredictd/testdata/zoo-era/shard-0/snap-*.snap")
		if err != nil || len(zoo) != 2 {
			t.Fatalf("zoo-era snapshots %v (%v), want two", zoo, err)
		}
		files := map[string][]byte{"testdata/pre-43/model.bin": read(t, "testdata/pre-43/model.bin")}
		for _, path := range append([]string{"testdata/pre-43/state.snap", "testdata/legacy-sliding/state.snap"}, zoo...) {
			files[path] = snapshotModel(t, read(t, path))
		}
		for path, file := range files {
			sameDerived(t, path, load(t, file), storedIn(t, file))
		}
	})

	fresh := func(t *testing.T, p *Predictor) {
		var buf bytes.Buffer
		if err := p.Save(&buf); err != nil {
			t.Fatal(err)
		}
		sameDerived(t, t.Name(), load(t, buf.Bytes()), derivedOf(p))
	}
	t.Run("fresh stock model", func(t *testing.T) {
		if testing.Short() {
			t.Skip("trains on the 800 stock queries")
		}
		p, err := Train(testutil.StockQueries(t, testutil.StockTrain), DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		fresh(t, p)
	})
	t.Run("fresh two-step model", func(t *testing.T) {
		train, _ := trainTest(t)
		opt := DefaultOptions()
		opt.TwoStep = true
		p, err := Train(train, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.sub) == 0 {
			t.Fatal("the two-step model has no type models")
		}
		fresh(t, p)
	})
}
