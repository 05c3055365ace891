package core

import (
	"bytes"
	"testing"
)

// persistShapes are the window shapes of the persistence suites below: a
// 150-query stream cycles through the ring (400 is not a multiple of 150, so
// the large window keeps changing), and every shape's window fills and
// slides before its model is persisted.
var persistShapes = []struct {
	name                  string
	capacity, every, rank int
	observes              int
}{
	{name: "auto-rank", capacity: 60, every: 10, observes: 150},
	{name: "fixed-rank", capacity: 400, every: 50, rank: 2, observes: 470},
}

// slideShape feeds one shape's stream into a fresh sliding predictor and
// fails unless the window filled.
func slideShape(t *testing.T, capacity, every, rank, observes int) (*SlidingPredictor, Options) {
	t.Helper()
	stream := pool(t).Queries[:150]
	opt := DefaultOptions()
	opt.KCCA.Rank = rank
	s, err := NewSliding(capacity, every, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < observes; i++ {
		if err := s.Observe(stream[i%len(stream)]); err != nil {
			t.Fatal(err)
		}
	}
	if s.WindowSize() != capacity {
		t.Fatalf("the window holds %d of %d rows; it never slid", s.WindowSize(), capacity)
	}
	return s, opt
}

// samePredictions fails unless two predictors answer every query of the
// pool's tail bit-identically.
func samePredictions(t *testing.T, got, want *Predictor) {
	t.Helper()
	var reqs []Request
	for _, q := range pool(t).Queries[400:] {
		reqs = append(reqs, Request{Query: q})
	}
	g, w := got.Predict(reqs...), want.Predict(reqs...)
	for i := range w {
		if (g[i].Err == nil) != (w[i].Err == nil) || !samePrediction(g[i].Prediction, w[i].Prediction) {
			t.Fatalf("query %d: %+v (%v), want %+v (%v)", i, g[i].Prediction, g[i].Err, w[i].Prediction, w[i].Err)
		}
	}
}

// TestSlidingRetrainSaveLoadEquivalence: the model a sliding window
// published after it slid survives a Save/Load round trip
// bit for bit — the model file a retrained daemon's predictor writes is the
// model it served.
func TestSlidingRetrainSaveLoadEquivalence(t *testing.T) {
	for _, sh := range persistShapes {
		t.Run(sh.name, func(t *testing.T) {
			s, _ := slideShape(t, sh.capacity, sh.every, sh.rank, sh.observes)
			var buf bytes.Buffer
			if err := s.Current().Save(&buf); err != nil {
				t.Fatal(err)
			}
			loaded, err := Load(&buf)
			if err != nil {
				t.Fatal(err)
			}
			samePredictions(t, loaded, s.Current())
		})
	}
}

// TestSlidingSnapshotRestoreEquivalence: a sliding predictor restored from
// its SaveState snapshot (the state a durable shard's snapshot carries)
// serves bit-identical predictions to the one that wrote it, and keeps its
// retrain count.
func TestSlidingSnapshotRestoreEquivalence(t *testing.T) {
	for _, sh := range persistShapes {
		t.Run(sh.name, func(t *testing.T) {
			s, opt := slideShape(t, sh.capacity, sh.every, sh.rank, sh.observes)
			var buf bytes.Buffer
			if err := s.SaveState(&buf); err != nil {
				t.Fatal(err)
			}
			restored, err := RestoreSliding(&buf, sh.capacity, sh.every, opt, testPlanFunc())
			if err != nil {
				t.Fatal(err)
			}
			if restored.Retrains() != s.Retrains() || restored.WindowSize() != s.WindowSize() {
				t.Fatalf("restored %d retrains over %d rows, want %d over %d",
					restored.Retrains(), restored.WindowSize(), s.Retrains(), s.WindowSize())
			}
			samePredictions(t, restored.Current(), s.Current())
		})
	}
}
