package core

import (
	"bytes"
	"encoding/gob"
	"testing"

	"repro/internal/frame"
)

// FuzzLoad feeds arbitrary (and mutated-valid) byte streams to Load. The
// contract under test: Load either returns a working predictor or an
// error — it must never panic, whatever the bytes, and a predictor it does
// accept must survive prediction and a save round trip.
func FuzzLoad(f *testing.F) {
	train, _ := trainTest(f)
	p, err := Train(train[:40], DefaultOptions())
	if err != nil {
		f.Fatal(err)
	}
	var valid bytes.Buffer
	if err := p.Save(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:valid.Len()/2])
	f.Add(valid.Bytes()[:16])
	f.Add([]byte{})
	f.Add([]byte("not a gob stream"))
	// Framed-format seeds: a bare header, one that declares a gigabyte it
	// does not carry, a CRC-corrupted frame, and the pre-v2 raw-gob layout
	// (must be rejected, not mis-decoded).
	f.Add(valid.Bytes()[:frame.HeaderLen])
	f.Add(hugeFrame(modelMagic))
	flipped := append([]byte(nil), valid.Bytes()...)
	flipped[len(flipped)-1] ^= 0x01
	f.Add(flipped)
	if w, err := p.toWire(); err == nil {
		var legacy bytes.Buffer
		if gob.NewEncoder(&legacy).Encode(w) == nil {
			f.Add(legacy.Bytes())
		}
	}

	inputDims := p.Model().X.Cols
	f.Fuzz(func(t *testing.T, data []byte) {
		loaded, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Anything Load accepts must be usable.
		if loaded.N() < 1 {
			t.Fatal("loaded predictor has no training rows")
		}
		if loaded.Model().X.Cols == inputDims {
			if _, err := loaded.PredictVector(make([]float64, inputDims)); err != nil {
				t.Fatalf("accepted predictor cannot predict: %v", err)
			}
		}
		var buf bytes.Buffer
		if err := loaded.Save(&buf); err != nil {
			t.Fatalf("accepted predictor cannot re-save: %v", err)
		}
	})
}
