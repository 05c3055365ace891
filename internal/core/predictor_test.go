package core

import (
	"math"
	"slices"
	"testing"

	"repro/internal/catalog"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/exec"
	"repro/internal/features"
	"repro/internal/knn"
	"repro/internal/statutil"
	"repro/internal/workload"
)

// testPool is shared across tests (generation dominates test time).
var testPool *dataset.Dataset

func pool(t testing.TB) *dataset.Dataset {
	t.Helper()
	if testPool == nil {
		ds, err := dataset.Generate(dataset.GenConfig{
			Seed: 11, DataSeed: 3, Machine: exec.Research4(),
			Schema: catalog.TPCDS(1), Templates: workload.TPCDSTemplates(), Count: 480,
		})
		if err != nil {
			t.Fatal(err)
		}
		testPool = ds
	}
	return testPool
}

func trainTest(t testing.TB) (train, test []*dataset.Query) {
	t.Helper()
	ds := pool(t)
	r := statutil.NewRNG(4, "coretest")
	test, err := ds.SampleMix(r, 20, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	return ds.Split(test), test
}

func TestTrainAndPredict(t *testing.T) {
	train, test := trainTest(t)
	p, err := Train(train, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if p.N() != len(train) {
		t.Errorf("N = %d, want %d", p.N(), len(train))
	}
	var pred, act []float64
	for _, q := range test {
		pr, err := p.PredictQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		if pr.Metrics.ElapsedSec < 0 {
			t.Errorf("negative elapsed prediction: %v", pr.Metrics.ElapsedSec)
		}
		if pr.Confidence <= 0 || pr.Confidence > 1 {
			t.Errorf("confidence out of range: %v", pr.Confidence)
		}
		if len(pr.Neighbors) != 3 {
			t.Errorf("neighbors = %d, want 3", len(pr.Neighbors))
		}
		pred = append(pred, pr.Metrics.ElapsedSec)
		act = append(act, q.Metrics.ElapsedSec)
	}
	// With a dedicated pool the risk should be clearly positive.
	if risk := eval.PredictiveRisk(pred, act); risk < 0.3 {
		t.Errorf("elapsed predictive risk = %v, want reasonable accuracy", risk)
	}
}

func TestPredictionsAreNonNegativeAcrossMetrics(t *testing.T) {
	// kNN averaging of nonnegative metrics can never go negative — the
	// structural advantage over linear regression.
	train, test := trainTest(t)
	p, err := Train(train, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range test {
		pr, err := p.PredictQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range pr.Metrics.Vector() {
			if v < 0 {
				t.Fatalf("metric %d negative: %v", i, v)
			}
		}
	}
}

func TestTwoStepPredict(t *testing.T) {
	train, test := trainTest(t)
	opt := DefaultOptions()
	opt.TwoStep = true
	p, err := Train(train, opt)
	if err != nil {
		t.Fatal(err)
	}
	correctCat := 0
	for _, q := range test {
		pr, err := p.PredictQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		want := q.Category
		if want == workload.WreckingBall {
			want = workload.BowlingBall
		}
		if pr.Category == want {
			correctCat++
		}
	}
	if correctCat < len(test)*2/3 {
		t.Errorf("two-step classified only %d/%d query types correctly", correctCat, len(test))
	}
}

func TestSQLFeaturePredictor(t *testing.T) {
	train, test := trainTest(t)
	opt := DefaultOptions()
	opt.Features = SQLFeatures
	p, err := Train(train, opt)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := p.PredictQuery(test[0])
	if err != nil {
		t.Fatal(err)
	}
	if pr.Metrics.ElapsedSec < 0 {
		t.Error("negative prediction")
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil, DefaultOptions()); err == nil {
		t.Error("empty training set accepted")
	}
	train, _ := trainTest(t)
	bad := &dataset.Query{ID: 999, SQL: "SELECT"}
	opt := DefaultOptions()
	if _, err := Train(append([]*dataset.Query{bad}, train[:10]...), opt); err == nil {
		t.Error("query without plan accepted under plan features")
	}
}

func TestConfidenceDropsForAnomalousQueries(t *testing.T) {
	// A feature vector far outside the training distribution must get
	// lower confidence than a typical training query (Sec. VII-C.3).
	train, test := trainTest(t)
	p, err := Train(train, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	typical, err := p.PredictQuery(test[0])
	if err != nil {
		t.Fatal(err)
	}
	// Build an absurd feature vector: everything large.
	weird := make([]float64, len(mustFeature(t, test[0])))
	for i := range weird {
		weird[i] = 500
	}
	anomalous, err := p.PredictVector(weird)
	if err != nil {
		t.Fatal(err)
	}
	if anomalous.Confidence >= typical.Confidence {
		t.Errorf("anomalous confidence %v should be below typical %v",
			anomalous.Confidence, typical.Confidence)
	}
}

func mustFeature(t *testing.T, q *dataset.Query) []float64 {
	t.Helper()
	f, err := queryFeature(q, PlanFeatures)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestFeatureKindString(t *testing.T) {
	if PlanFeatures.String() != "query-plan" || SQLFeatures.String() != "sql-text" {
		t.Error("feature kind names wrong")
	}
	if DefaultOptions().Features != PlanFeatures {
		t.Error("default options should use plan features")
	}
}

func TestInfluences(t *testing.T) {
	train, test := trainTest(t)
	p, err := Train(train, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0)
	for i := 0; i < 24; i++ {
		names = append(names, "f")
	}
	// Wrong name count is rejected.
	if _, err := p.Influences(test, names[:3]); err == nil {
		t.Error("short name list accepted")
	}
	// Real feature names.
	inf, err := p.Influences(test, featureNamesForTest())
	if err != nil {
		t.Fatal(err)
	}
	if len(inf) == 0 {
		t.Fatal("no influences")
	}
	for i := 1; i < len(inf); i++ {
		if inf[i].Score > inf[i-1].Score {
			t.Fatal("influences not sorted")
		}
	}
	for _, f := range inf {
		if f.Score < 0 || f.Score > 1 {
			t.Errorf("score out of range: %+v", f)
		}
	}
	// Cardinality features must dominate: the top feature should be a
	// cardinality sum, not an operator count.
	if inf[0].Score == 0 {
		t.Error("top influence is zero")
	}
	if _, err := p.Influences(nil, featureNamesForTest()); err == nil {
		t.Error("empty probe accepted")
	}
}

func featureNamesForTest() []string {
	return features.PlanFeatureNames()
}

func TestWithKNNVariants(t *testing.T) {
	train, test := trainTest(t)
	p, err := Train(train, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if p.Model() == nil {
		t.Fatal("Model() returned nil")
	}
	// Varying kNN options must not require retraining and must change
	// behaviour sensibly.
	k5 := p.WithKNN(knn.Options{K: 5, Distance: knn.Euclidean, Weighting: knn.EqualWeight})
	pred5, err := k5.PredictQuery(test[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(pred5.Neighbors) != 5 {
		t.Errorf("neighbors = %d, want 5", len(pred5.Neighbors))
	}
	cos := p.WithKNN(knn.Options{K: 3, Distance: knn.Cosine, Weighting: knn.DistanceWeight})
	if _, err := cos.PredictQuery(test[0]); err != nil {
		t.Fatal(err)
	}
	// Zero-valued options fall back to defaults.
	def := p.WithKNN(knn.Options{})
	predDef, err := def.PredictQuery(test[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(predDef.Neighbors) != 3 {
		t.Errorf("default neighbors = %d, want 3", len(predDef.Neighbors))
	}
	// The underlying predictor is untouched.
	orig, err := p.PredictQuery(test[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(orig.Neighbors) != 3 {
		t.Error("WithKNN mutated the original predictor")
	}
}

// TestWithKNNMatchesTrain: a predictor cloned with other k-NN options
// predicts exactly what one trained with those options does — metrics,
// confidence, category and neighbours, bit for bit. The confidence is the
// part at risk: it is calibrated on the mean distance to k neighbours, so a
// clone with another k needs the scale Train computes for that k.
func TestWithKNNMatchesTrain(t *testing.T) {
	train, test := trainTest(t)
	opt := DefaultOptions()
	opt.TwoStep = false
	base, err := Train(train, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, kopt := range []knn.Options{
		{K: 1}, {K: 5}, {K: 7},
		{K: 3, Distance: knn.Cosine},
		{K: 3, Weighting: knn.RankWeight},
		{K: 3, Weighting: knn.DistanceWeight},
		{K: 5, Distance: knn.Cosine, Weighting: knn.DistanceWeight},
	} {
		opt.KNN = kopt
		trained, err := Train(train, opt)
		if err != nil {
			t.Fatal(err)
		}
		cloned := base.WithKNN(kopt)
		for i, q := range test {
			want, err := trained.PredictQuery(q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := cloned.PredictQuery(q)
			if err != nil {
				t.Fatal(err)
			}
			if got.Metrics != want.Metrics || math.Float64bits(got.Confidence) != math.Float64bits(want.Confidence) ||
				got.Category != want.Category || !slices.Equal(got.Neighbors, want.Neighbors) {
				t.Fatalf("%+v query %d: WithKNN predicts %+v (confidence %v), Train %+v (confidence %v)",
					kopt, i, got.Metrics, got.Confidence, want.Metrics, want.Confidence)
			}
		}
	}
}

func TestTwoStepTieBreaking(t *testing.T) {
	// With k=2 neighbors a category tie is guaranteed whenever the two
	// nearest neighbors have different types; the vote must break toward
	// the nearer neighbor's category (nearestRank), counting a wrecking
	// ball as a bowling ball.
	train, test := trainTest(t)
	opt := DefaultOptions()
	opt.TwoStep = true
	opt.KNN = knn.Options{K: 2, Distance: knn.Euclidean, Weighting: knn.EqualWeight}
	p, err := Train(train, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range test {
		pred, err := p.PredictQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		if pred.Category < workload.Feather || pred.Category > workload.BowlingBall {
			t.Errorf("two-step category out of range: %v", pred.Category)
		}
	}

	// A 1–1 vote over two training rows of different types, in both orders.
	first := map[workload.Category]int{}
	for i, c := range p.cats {
		if _, ok := first[c]; !ok {
			first[c] = i
		}
	}
	for _, tc := range []struct{ near, far, want workload.Category }{
		{workload.Feather, workload.GolfBall, workload.Feather},
		{workload.GolfBall, workload.Feather, workload.GolfBall},
		{workload.WreckingBall, workload.Feather, workload.BowlingBall},
		{workload.Feather, workload.WreckingBall, workload.Feather},
	} {
		near, okNear := first[tc.near]
		far, okFar := first[tc.far]
		if !okNear || !okFar {
			t.Fatalf("training set has no %v or no %v", tc.near, tc.far)
		}
		nbs := []knn.Neighbor{{Index: near, Distance: 1}, {Index: far, Distance: 2}}
		if got := p.voteCategory(nbs); got != tc.want {
			t.Errorf("tie between a nearer %v and a farther %v voted %v, want %v", tc.near, tc.far, got, tc.want)
		}
	}
}
