package core

import (
	"errors"
	"testing"

	"repro/internal/dataset"
	"repro/internal/kcca"
	"repro/internal/knn"
	"repro/internal/linalg"
)

// TestSentinelErrors is the errors.Is table for the prediction stack: every
// failure mode callers branch on (and the serving layer maps to HTTP
// statuses) must wrap its exported sentinel.
func TestSentinelErrors(t *testing.T) {
	train, _ := trainTest(t)
	p, err := Train(train, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	coldSliding, err := NewSliding(10, 5, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		got  func() error
		want error
	}{
		{
			"train with too few queries",
			func() error { _, err := Train(train[:3], DefaultOptions()); return err },
			ErrTooFewQueries,
		},
		{
			"predict a planless query",
			func() error { _, err := p.PredictQuery(&dataset.Query{SQL: "SELECT 1"}); return err },
			ErrNoPlan,
		},
		{
			"predict a wrong-dimension vector",
			func() error { _, err := p.PredictVector([]float64{1, 2, 3}); return err },
			ErrDimension,
		},
		{
			"predict an empty request",
			func() error { return p.Predict(Request{})[0].Err },
			ErrEmptyRequest,
		},
		{
			"predict before sliding trains",
			func() error { _, err := coldSliding.PredictQuery(train[0]); return err },
			ErrNotTrained,
		},
		{
			"force-retrain an underfilled window",
			func() error { return coldSliding.Retrain() },
			ErrEmptyWindow,
		},
		{
			"knn with no points",
			func() error {
				_, err := knn.Nearest(linalg.NewMatrix(0, 2), []float64{1, 2}, 3, knn.Euclidean)
				return err
			},
			knn.ErrNoPoints,
		},
		{
			"knn with nonpositive k",
			func() error {
				_, err := knn.Nearest(linalg.NewMatrix(2, 2), []float64{1, 2}, 0, knn.Euclidean)
				return err
			},
			knn.ErrBadK,
		},
		{
			"knn with mismatched dimensions",
			func() error {
				_, err := knn.Nearest(linalg.NewMatrix(2, 2), []float64{1, 2, 3}, 1, knn.Euclidean)
				return err
			},
			knn.ErrDimension,
		},
		{
			"kcca with too few rows",
			func() error {
				_, err := kcca.Train(linalg.NewMatrix(3, 2), kcca.DefaultOptions())
				return err
			},
			kcca.ErrTooFew,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.got()
			if err == nil {
				t.Fatal("no error")
			}
			if !errors.Is(err, c.want) {
				t.Fatalf("error %q does not wrap %q", err, c.want)
			}
		})
	}
}

// TestPredictPerRequestErrors checks the Request/Result contract: a bad
// request fails alone, in position, without voiding its neighbors — and
// the good neighbors match the single-query wrappers bit for bit.
func TestPredictPerRequestErrors(t *testing.T) {
	train, test := trainTest(t)
	p, err := Train(train, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	results := p.Predict(
		Request{Query: test[0]},
		Request{Query: &dataset.Query{SQL: "no plan here"}},
		Request{Vector: []float64{1}},
		Request{},
		Request{Query: test[1]},
	)
	if len(results) != 5 {
		t.Fatalf("%d results, want 5", len(results))
	}
	for i, want := range map[int]error{1: ErrNoPlan, 2: ErrDimension, 3: ErrEmptyRequest} {
		if !errors.Is(results[i].Err, want) {
			t.Errorf("result %d: error %v, want %v", i, results[i].Err, want)
		}
		if results[i].Prediction != nil {
			t.Errorf("result %d: prediction set alongside error", i)
		}
	}
	for _, i := range []int{0, 4} {
		if results[i].Err != nil {
			t.Fatalf("result %d: unexpected error %v", i, results[i].Err)
		}
		want, err := p.PredictQuery(test[map[int]int{0: 0, 4: 1}[i]])
		if err != nil {
			t.Fatal(err)
		}
		if results[i].Prediction.Metrics != want.Metrics ||
			results[i].Prediction.Confidence != want.Confidence ||
			results[i].Prediction.Category != want.Category {
			t.Errorf("result %d diverges from PredictQuery", i)
		}
	}
}
