package kcca

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/knn"
	"repro/internal/linalg"
	"repro/internal/regress"
)

// nonlinearViews plants a strongly nonlinear relation: the performance
// view is a smooth but non-linear function of the query view, like query
// runtime versus plan cardinalities.
func nonlinearViews(seed int64, n int) (*linalg.Matrix, *linalg.Matrix) {
	rng := rand.New(rand.NewSource(seed))
	x := linalg.NewMatrix(n, 3)
	y := linalg.NewMatrix(n, 2)
	for i := 0; i < n; i++ {
		a := rng.Float64() * 4
		b := rng.Float64() * 4
		c := rng.NormFloat64()
		x.Set(i, 0, a)
		x.Set(i, 1, b)
		x.Set(i, 2, c)
		y.Set(i, 0, a*b+0.05*rng.NormFloat64()) // multiplicative
		y.Set(i, 1, math.Exp(a/2)+0.05*rng.NormFloat64())
	}
	return x, y
}

// unitOpts returns options whose kernel scales suit the unit-scale planted
// data of these tests (the paper's 0.1/0.2 fractions assume cardinality
// features whose norms vary over orders of magnitude).
func unitOpts() Options {
	o := DefaultOptions()
	o.TauFracX, o.TauFracY = 5, 5
	return o
}

func TestTrainBasics(t *testing.T) {
	x, y := nonlinearViews(1, 120)
	m, err := Train(x, y, unitOpts())
	if err != nil {
		t.Fatal(err)
	}
	if m.N() != 120 {
		t.Errorf("N = %d", m.N())
	}
	if m.Dims() <= 0 {
		t.Errorf("dims = %d", m.Dims())
	}
	if m.QueryProj.Rows != 120 {
		t.Error("projection row count wrong")
	}
	for i, c := range m.Correlations {
		if c < -1e-9 || c > 1+1e-9 {
			t.Errorf("correlation %d = %v", i, c)
		}
	}
	if m.Correlations[0] < 0.8 {
		t.Errorf("top correlation = %v, want high for strongly related views", m.Correlations[0])
	}
}

func TestProjectQueryConsistentWithTraining(t *testing.T) {
	// Projecting a TRAINING point out-of-sample must land (nearly) on its
	// training projection — the property that makes Fig. 7's prediction
	// pipeline coherent.
	x, y := nonlinearViews(2, 80)
	m, err := Train(x, y, unitOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		got := m.ProjectQuery(x.Row(i))
		want := m.QueryProj.Row(i)
		for j := range got {
			if math.Abs(got[j]-want[j]) > 1e-6*(1+math.Abs(want[j])) {
				t.Fatalf("row %d dim %d: out-of-sample %v vs training %v", i, j, got[j], want[j])
			}
		}
	}
}

func TestSimilarQueriesProjectNearby(t *testing.T) {
	x, y := nonlinearViews(3, 100)
	m, err := Train(x, y, unitOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Perturb training point 0 slightly: its projection must stay closer
	// to point 0's projection than to most others.
	q := linalg.CloneVec(x.Row(0))
	for j := range q {
		q[j] += 0.01
	}
	p := m.ProjectQuery(q)
	d0 := linalg.Dist(p, m.QueryProj.Row(0))
	closer := 0
	for i := 1; i < m.N(); i++ {
		if linalg.Dist(p, m.QueryProj.Row(i)) < d0 {
			closer++
		}
	}
	if closer > 3 {
		t.Errorf("perturbed query has %d training points closer than its source", closer)
	}
}

// TestKCCABeatsRegressionOnNonlinearData is the core scientific claim:
// kNN in KCCA projection space predicts a nonlinear metric much better
// than linear regression on the raw features.
func TestKCCABeatsRegressionOnNonlinearData(t *testing.T) {
	xTrain, yTrain := nonlinearViews(4, 300)
	xTest, yTest := nonlinearViews(5, 60)

	m, err := Train(xTrain, yTrain, unitOpts())
	if err != nil {
		t.Fatal(err)
	}
	opts := knn.DefaultOptions()

	risk := func(pred, act []float64) float64 {
		mean := linalg.Mean(act)
		var sse, sst float64
		for i := range act {
			sse += (pred[i] - act[i]) * (pred[i] - act[i])
			sst += (act[i] - mean) * (act[i] - mean)
		}
		return 1 - sse/sst
	}

	// KCCA + kNN predictions for metric 0.
	kccaPred := make([]float64, xTest.Rows)
	act := make([]float64, xTest.Rows)
	for i := 0; i < xTest.Rows; i++ {
		proj := m.ProjectQuery(xTest.Row(i))
		pred, _, err := knn.Predict(m.QueryProj, yTrain, proj, opts)
		if err != nil {
			t.Fatal(err)
		}
		kccaPred[i] = pred[0]
		act[i] = yTest.At(i, 0)
	}

	// Linear regression baseline on the same metric.
	lm, err := regress.Fit(xTrain, yTrain.Col(0))
	if err != nil {
		t.Fatal(err)
	}
	regPred := lm.PredictAll(xTest)

	kccaRisk := risk(kccaPred, act)
	regRisk := risk(regPred, act)
	if kccaRisk < 0.9 {
		t.Errorf("KCCA predictive risk = %v, want > 0.9", kccaRisk)
	}
	if kccaRisk <= regRisk {
		t.Errorf("KCCA (%v) should beat regression (%v) on nonlinear data", kccaRisk, regRisk)
	}
}

func TestTrainErrors(t *testing.T) {
	x := linalg.NewMatrix(4, 2)
	y := linalg.NewMatrix(4, 2)
	if _, err := Train(x, y, DefaultOptions()); err == nil {
		t.Error("too-few rows accepted")
	}
	if _, err := Train(linalg.NewMatrix(10, 2), linalg.NewMatrix(9, 2), DefaultOptions()); err == nil {
		t.Error("row mismatch accepted")
	}
}

func TestRankOption(t *testing.T) {
	x, y := nonlinearViews(6, 60)
	m, err := Train(x, y, Options{Rank: 10, Reg: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if m.Dims() > 10 {
		t.Errorf("dims = %d, want <= rank 10", m.Dims())
	}
}

func TestMaxKernel(t *testing.T) {
	x, y := nonlinearViews(7, 60)
	m, err := Train(x, y, unitOpts())
	if err != nil {
		t.Fatal(err)
	}
	// A training point's max kernel is 1 (itself).
	if _, k := m.ProjectQueryKernel(x.Row(0)); math.Abs(k-1) > 1e-12 {
		t.Errorf("training point max kernel = %v, want 1", k)
	}
	// A far-away point has near-zero similarity.
	far := make([]float64, x.Cols)
	for i := range far {
		far[i] = 1e6
	}
	if _, k := m.ProjectQueryKernel(far); k > 1e-6 {
		t.Errorf("far point max kernel = %v, want ~0", k)
	}
}

func TestSaveLoadModel(t *testing.T) {
	x, y := nonlinearViews(8, 50)
	m, err := Train(x, y, unitOpts())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.N() != m.N() || loaded.Dims() != m.Dims() {
		t.Fatal("shape changed after round trip")
	}
	// Out-of-sample projection must be bit-identical.
	q := x.Row(3)
	a := m.ProjectQuery(q)
	b := loaded.ProjectQuery(q)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("projection changed after round trip at dim %d", i)
		}
	}
	if _, err := Load(strings.NewReader("junk")); err == nil {
		t.Error("garbage accepted")
	}
}

// legacyModelWire is modelWire as builds wrote it while models kept the
// performance projection: PerfProj beside QueryProj and a copy of the
// correlations, and the CCA's y-side mean and weights.
type legacyModelWire struct {
	X            *linalg.Matrix
	TauX, TauY   float64
	QueryProj    *linalg.Matrix
	PerfProj     *linalg.Matrix
	Correlations []float64
	RowMeansX    []float64
	GrandX       float64
	Ux           *linalg.Matrix
	Lamx         []float64
	CCA          *struct {
		MeanX, MeanY []float64
		WX, WY       *linalg.Matrix
		Correlations []float64
	}
}

// TestLoadSkipsPerformanceProjection: a model file that still carries both
// training projections and the correlations loads into the same model as
// one that carries neither, bit for bit (the derived query projection
// included), on every architecture (the byte-for-byte fixtures in
// internal/core run on amd64 only).
func TestLoadSkipsPerformanceProjection(t *testing.T) {
	x, y := nonlinearViews(10, 50)
	m, err := Train(x, y, unitOpts())
	if err != nil {
		t.Fatal(err)
	}
	var cur bytes.Buffer
	if err := m.Save(&cur); err != nil {
		t.Fatal(err)
	}
	var w modelWire
	if err := gob.NewDecoder(bytes.NewReader(cur.Bytes())).Decode(&w); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	filled := func(rows, cols int) *linalg.Matrix {
		out := linalg.NewMatrix(rows, cols)
		for i := range out.Data {
			out.Data[i] = rng.NormFloat64()
		}
		return out
	}
	legacy := legacyModelWire{
		X: w.X, TauX: w.TauX, TauY: w.TauY, QueryProj: m.QueryProj,
		PerfProj:     filled(m.QueryProj.Rows, m.QueryProj.Cols),
		Correlations: m.Correlations, RowMeansX: w.RowMeansX, GrandX: w.GrandX,
		Ux: w.Ux, Lamx: w.Lamx,
	}
	legacy.CCA = &struct {
		MeanX, MeanY []float64
		WX, WY       *linalg.Matrix
		Correlations []float64
	}{w.CCA.MeanX, filled(1, 7).Data, w.CCA.WX, filled(7, w.CCA.WX.Cols), w.CCA.Correlations}
	var old bytes.Buffer
	if err := gob.NewEncoder(&old).Encode(&legacy); err != nil {
		t.Fatal(err)
	}
	if old.Len() <= cur.Len() {
		t.Fatalf("the file with the projections is %d bytes, without %d", old.Len(), cur.Len())
	}
	for _, tc := range []struct {
		name string
		file []byte
	}{
		{"with performance projection", old.Bytes()},
		{"without", cur.Bytes()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Load(bytes.NewReader(tc.file))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, m) {
				t.Fatal("the loaded model differs from the trained one")
			}
			for i, v := range m.QueryProj.Data {
				if math.Float64bits(got.QueryProj.Data[i]) != math.Float64bits(v) {
					t.Fatalf("derived projection element %d = %v, trained %v", i, got.QueryProj.Data[i], v)
				}
			}
		})
	}
}

// TestLoadRejectsCorruptModel tampers with each validated invariant of the
// wire form and checks Load returns an error rather than building a model
// that panics on first use.
func TestLoadRejectsCorruptModel(t *testing.T) {
	x, y := nonlinearViews(9, 40)
	m, err := Train(x, y, unitOpts())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	decode := func() *modelWire {
		var w modelWire
		if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&w); err != nil {
			t.Fatal(err)
		}
		return &w
	}
	cases := []struct {
		name    string
		corrupt func(w *modelWire)
	}{
		{"truncated X data", func(w *modelWire) { w.X.Data = w.X.Data[:len(w.X.Data)-1] }},
		{"negative dims", func(w *modelWire) { w.Ux.Rows = -1 }},
		{"basis rows disagree", func(w *modelWire) {
			w.Ux.Rows--
			w.Ux.Data = w.Ux.Data[:w.Ux.Rows*w.Ux.Cols]
		}},
		{"short row means", func(w *modelWire) { w.RowMeansX = w.RowMeansX[:len(w.RowMeansX)-2] }},
		{"truncated eigenvalues", func(w *modelWire) { w.Lamx = w.Lamx[:len(w.Lamx)-1] }},
		{"zero eigenvalue", func(w *modelWire) { w.Lamx[0] = 0 }},
		{"NaN kernel scale", func(w *modelWire) { w.TauX = math.NaN() }},
		{"missing CCA weights", func(w *modelWire) { w.CCA = nil }},
		{"CCA input dim mismatch", func(w *modelWire) { w.CCA.MeanX = w.CCA.MeanX[:1] }},
		{"more canonical dims than components", func(w *modelWire) {
			w.CCA.WX = linalg.NewMatrix(w.CCA.WX.Rows, w.CCA.WX.Rows+1)
		}},
	}
	for _, tc := range cases {
		w := decode()
		tc.corrupt(w)
		var out bytes.Buffer
		if err := gob.NewEncoder(&out).Encode(w); err != nil {
			t.Fatalf("%s: re-encode: %v", tc.name, err)
		}
		if _, err := Load(&out); err == nil {
			t.Errorf("%s: corrupted model loaded without error", tc.name)
		}
	}
}
