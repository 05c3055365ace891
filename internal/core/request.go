package core

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// Request describes one prediction to make. Exactly one input form is
// used: a planned query (whose configured feature vector is extracted
// automatically) or a raw feature vector. When both are set the vector
// wins, so callers that already extracted features never pay for a second
// extraction.
//
// Request/Result is the canonical prediction surface: the serving layer,
// the CLIs, and the historical PredictQuery/PredictVector/PredictBatch
// wrappers all funnel through Predict.
type Request struct {
	// Query is a planned (not executed) query; its feature vector is
	// extracted per the predictor's FeatureKind.
	Query *dataset.Query
	// Vector is a raw query feature vector, used as-is when non-nil.
	Vector []float64
}

// Result is the outcome of one Request: either a Prediction or the error
// that request failed with. Batch callers get one Result per Request,
// positionally, so a single malformed query never voids its neighbors'
// answers.
type Result struct {
	Prediction *Prediction
	Err        error
}

// Predict evaluates every request and returns one Result per request, in
// order; results are positionally bit-identical to evaluating each request
// alone. It runs in three stages: resolve each request's feature vector;
// project the batch (cache lookups, then every distinct uncached vector
// through kcca.Model.ProjectBatch together); fan the neighbor search and
// combination out across the shared worker pool, one request per task (a
// trained Predictor is immutable, so concurrent predictions are safe). A
// single request is the same path at batch size one, with no pool traffic.
func (p *Predictor) Predict(reqs ...Request) []Result {
	defer obs.Span("core.predict_batch")()
	defer predictSeconds.Time()()
	batchSize.Observe(float64(len(reqs)))
	out := make([]Result, len(reqs))
	items := make([]projected, len(reqs))
	for i, r := range reqs {
		items[i].f, out[i].Err = p.featureVector(r)
	}
	p.project(items)
	parallel.For(len(reqs), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if it := &items[i]; it.f != nil {
				out[i].Prediction, out[i].Err = p.predictProjected(it.f, it.proj, it.maxK)
			}
		}
	})
	return out
}

// featureVector resolves and validates a request's feature vector.
func (p *Predictor) featureVector(r Request) ([]float64, error) {
	f := r.Vector
	if f == nil {
		if r.Query == nil {
			return nil, ErrEmptyRequest
		}
		var err error
		f, err = queryFeature(r.Query, p.opt.Features)
		if err != nil {
			return nil, err
		}
	}
	if want := p.model.X.Cols; len(f) != want {
		return nil, fmt.Errorf("%w: vector has %d features, model was trained with %d", ErrDimension, len(f), want)
	}
	return f, nil
}

// projected is one request on its way through the batch stage: its feature
// vector (nil when the request already failed), then its canonical
// projection and largest raw kernel similarity.
type projected struct {
	f     []float64
	proj  []float64
	maxK  float64
	dupOf int // 1 + the index of an earlier item with the same vector, else 0
}

// project fills in proj and maxK for every item with a feature vector. Both
// come from the same O(N·d) kernel cross vector, skipped entirely when this
// generation's cache has seen the vector before (repeated plans in template
// workloads). Each vector is looked up once; the distinct uncached ones are
// projected together and cached, and a vector repeated within the batch
// shares the first occurrence's projection. Counters read as if the requests
// had arrived one by one: a projected vector is one miss, a cached or
// repeated one a hit.
func (p *Predictor) project(items []projected) {
	var miss []int
	hits := 0
next:
	for i := range items {
		it := &items[i]
		if it.f == nil {
			continue
		}
		if p.cache != nil {
			if proj, maxK, ok := p.cache.get(it.f); ok {
				it.proj, it.maxK = proj, maxK
				hits++
				continue
			}
			for _, j := range miss {
				if equalBits(items[j].f, it.f) {
					it.dupOf = j + 1
					hits++
					continue next
				}
			}
		}
		miss = append(miss, i)
	}
	projHits.Add(int64(hits))
	if len(miss) == 0 {
		return
	}
	projMisses.Add(int64(len(miss)))
	qs := make([][]float64, len(miss))
	for k, i := range miss {
		qs[k] = items[i].f
	}
	projs, maxKs := p.model.ProjectBatch(qs)
	for k, i := range miss {
		items[i].proj, items[i].maxK = projs[k], maxKs[k]
		p.cache.put(qs[k], projs[k], maxKs[k])
	}
	for i := range items {
		if j := items[i].dupOf; j > 0 {
			items[i].proj, items[i].maxK = items[j-1].proj, items[j-1].maxK
		}
	}
}
