package core

import (
	"math"
	"sync"
	"testing"

	"repro/internal/knn"
)

// TestIndexGenerationLifecycle is the generation-lifecycle proof for the
// per-generation k-NN index: while retrains hot-swap model generations
// under live predict traffic,
//
//  1. every prediction is served by a consistent (model, index) pair —
//     asserted by recomputing each prediction through a flat-scan mirror on
//     the generation the predictor handed out, bit-identical;
//  2. the index is swapped atomically with its generation (the index a
//     Predictor carries always covers exactly its own training points);
//  3. a retired generation's index is never read again once the swap has
//     landed (its search counters freeze).
//
// CI runs it under -race, which additionally proves the lock-free reads.
func TestIndexGenerationLifecycle(t *testing.T) {
	ds := pool(t)
	s, err := NewSliding(120, 40, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range ds.Queries[:40] {
		if err := s.Observe(q); err != nil {
			t.Fatal(err)
		}
	}
	p1 := s.Current()
	if p1 == nil {
		t.Fatal("no model after first retrain")
	}
	idx1 := p1.Index()
	if idx1 == nil {
		t.Fatal("generation 1 has no index")
	}

	// mirror recomputes a prediction against one pinned generation with the
	// package-level flat scan — no index anywhere on the path.
	mirror := func(p *Predictor, f []float64) Prediction {
		proj, maxK := p.model.ProjectQueryKernel(f)
		nbs, err := knn.Nearest(p.model.QueryProj, proj, p.opt.KNN.K, p.opt.KNN.Distance)
		if err != nil {
			t.Fatal(err)
		}
		return p.combine(maxK, nbs)
	}

	// Predict workers race against the observer's retrains. Each iteration
	// pins whatever generation the atomic pointer holds and checks the
	// served prediction bit-for-bit against that generation's mirror.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			qi := w
			for {
				select {
				case <-stop:
					return
				default:
				}
				q := ds.Queries[qi%len(ds.Queries)]
				qi += 5
				p := s.Current()
				if p.Index().Len() != p.N() {
					t.Errorf("index covers %d points for a %d-point generation (torn swap)", p.Index().Len(), p.N())
					return
				}
				f, err := queryFeature(q, p.opt.Features)
				if err != nil {
					t.Error(err)
					return
				}
				got, err := p.predictVector(f)
				if err != nil {
					t.Error(err)
					return
				}
				want := mirror(p, f)
				if math.Float64bits(got.Metrics.ElapsedSec) != math.Float64bits(want.Metrics.ElapsedSec) ||
					math.Float64bits(got.Confidence) != math.Float64bits(want.Confidence) {
					t.Errorf("prediction diverged from flat-scan mirror: got %+v want %+v", got.Metrics, want.Metrics)
					return
				}
				if len(got.Neighbors) != len(want.Neighbors) {
					t.Errorf("neighbor count %d vs mirror %d", len(got.Neighbors), len(want.Neighbors))
					return
				}
				for i := range got.Neighbors {
					if got.Neighbors[i] != want.Neighbors[i] {
						t.Errorf("neighbor %d = %+v, mirror %+v", i, got.Neighbors[i], want.Neighbors[i])
						return
					}
				}
			}
		}(w)
	}
	for _, q := range ds.Queries[40:440] {
		if err := s.Observe(q); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	pN := s.Current()
	if pN == p1 {
		t.Fatal("no hot swap happened")
	}
	idxN := pN.Index()
	if idxN == idx1 {
		t.Fatal("new generation reuses the retired generation's index")
	}
	if idxN.Len() != pN.N() {
		t.Fatalf("current index covers %d points for a %d-point model", idxN.Len(), pN.N())
	}

	// Retirement: once the swap has landed, nothing reads the old index. Its
	// counters must freeze while the current generation's advance.
	reads := func(ix *knn.Index) int64 { return ix.Stats().Searches }
	oldReads, curReads := reads(idx1), reads(idxN)
	for i := 0; i < 50; i++ {
		if _, err := s.PredictQuery(ds.Queries[i]); err != nil {
			t.Fatal(err)
		}
	}
	if got := reads(idx1); got != oldReads {
		t.Fatalf("retired index was read %d more times after the swap", got-oldReads)
	}
	if got := reads(idxN); got < curReads+50 {
		t.Fatalf("current index served %d of 50 post-swap predictions", got-curReads)
	}
}
