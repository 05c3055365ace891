package core

import (
	"bytes"
	"errors"
	"math"
	"os"
	"strings"
	"testing"
)

// conformanceConfigs are the predictor configurations the conformance and
// determinism suites below hold for: the paper's default, the SQL text
// features of Fig. 8, the Experiment 3 two-step strategy, and a fixed
// kernel-PCA rank.
func conformanceConfigs() []struct {
	name string
	opt  Options
} {
	sql, twoStep, rank := DefaultOptions(), DefaultOptions(), DefaultOptions()
	sql.Features = SQLFeatures
	twoStep.TwoStep = true
	rank.KCCA.Rank = 8
	return []struct {
		name string
		opt  Options
	}{
		{"default", DefaultOptions()},
		{"sql-features", sql},
		{"two-step", twoStep},
		{"fixed-rank", rank},
	}
}

// conformanceRequests are the held-out queries of trainTest as requests.
func conformanceRequests(t *testing.T) []Request {
	_, test := trainTest(t)
	reqs := make([]Request, len(test))
	for i, q := range test {
		reqs[i] = Request{Query: q}
	}
	return reqs
}

// sameResults fails unless two result slices agree bit for bit, errors
// included.
func sameResults(t *testing.T, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d results, want %d", len(got), len(want))
	}
	for i := range want {
		if (got[i].Err == nil) != (want[i].Err == nil) || !samePrediction(got[i].Prediction, want[i].Prediction) {
			t.Fatalf("result %d: %+v (%v), want %+v (%v)", i, got[i].Prediction, got[i].Err, want[i].Prediction, want[i].Err)
		}
	}
}

// TestConformance: in every configuration a trained predictor answers
// unseen planned queries with finite, non-negative metrics and a
// confidence in (0, 1]; a Save/Load round trip answers bit-identically;
// and a flipped or truncated model file is refused, never loaded as a
// silently different model.
func TestConformance(t *testing.T) {
	train, _ := trainTest(t)
	reqs := conformanceRequests(t)
	for _, c := range conformanceConfigs() {
		t.Run(c.name, func(t *testing.T) {
			p, err := Train(train[:160], c.opt)
			if err != nil {
				t.Fatal(err)
			}
			if p.N() != 160 {
				t.Fatalf("N = %d after training on 160 queries", p.N())
			}
			res := p.Predict(reqs...)
			for i, r := range res {
				if r.Err != nil {
					t.Fatalf("query %d: %v", i, r.Err)
				}
				if c := r.Prediction.Confidence; !(c > 0 && c <= 1) {
					t.Errorf("query %d: confidence %v outside (0, 1]", i, c)
				}
				for mi, v := range r.Prediction.Metrics.Vector() {
					if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
						t.Errorf("query %d metric %d: bad prediction %v", i, mi, v)
					}
				}
			}

			var buf bytes.Buffer
			if err := p.Save(&buf); err != nil {
				t.Fatal(err)
			}
			loaded, err := Load(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if loaded.N() != p.N() {
				t.Fatalf("loaded N = %d, want %d", loaded.N(), p.N())
			}
			sameResults(t, loaded.Predict(reqs...), res)

			corrupt := bytes.Clone(buf.Bytes())
			corrupt[len(corrupt)-1] ^= 0xff
			if _, err := Load(bytes.NewReader(corrupt)); !errors.Is(err, ErrBadModelFile) {
				t.Fatalf("flipped last byte: %v, want ErrBadModelFile", err)
			}
			if _, err := Load(bytes.NewReader(buf.Bytes()[:buf.Len()/2])); !errors.Is(err, ErrBadModelFile) {
				t.Fatalf("truncated file: %v, want ErrBadModelFile", err)
			}
		})
	}
}

// TestTrainerDeterminism: in every configuration, two trainings on the same
// window learn the same projection and answer bit for bit alike — what lets
// a recovered or replayed window be compared with the model it replaces. (Save bytes are not compared: gob's map encoding
// orders a two-step model's sub-models at random.)
func TestTrainerDeterminism(t *testing.T) {
	train, _ := trainTest(t)
	reqs := conformanceRequests(t)
	for _, c := range conformanceConfigs() {
		t.Run(c.name, func(t *testing.T) {
			a, err := Train(train[:160], c.opt)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Train(train[:160], c.opt)
			if err != nil {
				t.Fatal(err)
			}
			ma, mb := a.Model(), b.Model()
			if !ma.QueryProj.Equal(mb.QueryProj, 0) {
				t.Fatal("two trainings of the same window learned different projections")
			}
			sameResults(t, b.Predict(reqs...), a.Predict(reqs...))
		})
	}
}

// TestZooFrameGolden: a model file of the model zoo's era (the QPREDZOO
// frame golden internal/frame pins) handed to Load is refused as a bad
// model file naming its magic, not decoded as a predictor.
func TestZooFrameGolden(t *testing.T) {
	golden, err := os.ReadFile("../frame/testdata/zoo.frame")
	if err != nil {
		t.Fatal(err)
	}
	_, err = Load(bytes.NewReader(golden))
	if !errors.Is(err, ErrBadModelFile) || !strings.Contains(err.Error(), "QPREDZOO") {
		t.Fatalf("Load: %v, want ErrBadModelFile naming the QPREDZOO magic", err)
	}
}
