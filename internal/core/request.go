package core

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/dataset"
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
// alone on a predictor with no cache. It resolves each request's feature
// vector and hands the batch to predictVectors; a single request is the
// same path at batch size one.
//
// Each Result owns its Prediction, except that Neighbors may share its
// backing array with this generation's prediction cache and with other
// results for the same feature vector: treat the elements as read-only.
func (p *Predictor) Predict(reqs ...Request) []Result {
	defer predictSeconds.Since(time.Now())
	batchSize.Observe(float64(len(reqs)))
	out := make([]Result, len(reqs))
	scratch := itemPool.Get().(*[]batchItem)
	items := slices.Grow((*scratch)[:0], len(reqs))[:len(reqs)]
	defer func() {
		clear(items) // pooled empty, holding no feature vector
		*scratch = items
		itemPool.Put(scratch)
	}()
	for i, r := range reqs {
		it := &items[i]
		if it.f, out[i].Err = p.featureVector(r); it.f != nil && r.Vector == nil {
			it.fp, it.memo = memoFingerprint(r.Query, p.opt.Features)
		}
	}
	p.predictVectors(items, out)
	return out
}

// itemPool holds Predict's batchItem scratch, which no result keeps.
var itemPool = sync.Pool{New: func() any { return new([]batchItem) }}

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

// batchItem is one request on its way through predictVectors: its feature
// vector (nil when the request already failed), the vector's fingerprint,
// and whether an earlier item of the batch carries the same vector.
type batchItem struct {
	f  []float64
	fp uint64
	// memo says fp is already f's Fingerprint, stored by the request's
	// plan-cache entry (dataset.PlanMemo).
	memo  bool
	dupOf int // 1 + the index of an earlier item with the same vector, else 0
}

// predictVectors fills out[i] for every item with a feature vector. A
// prediction is a pure function of (feature vector, this Predictor), so a
// vector this generation's cache has seen (repeated plans in template
// workloads) is answered by copying the cached Prediction: one fingerprint,
// one exact compare, no kernel, projection or neighbor search. Only the
// distinct vectors the cache does not know are computed — projected together
// through kcca.Model.ProjectBatch, then searched and combined in parallel,
// one vector per task (a trained Predictor is immutable, so concurrent
// predictions are safe) — and cached unless they failed; a vector repeated
// within the batch copies its first occurrence's outcome.
// The fingerprint is taken once per item, or not at all when the item's
// plan-cache entry brought it, and serves the lookup, the in-batch repeat
// detection and the insert. Every prediction of a call is
// carved from one slab. Counters read as if the requests had arrived one by
// one: a computed vector is one miss, a cached or repeated one a hit.
func (p *Predictor) predictVectors(items []batchItem, out []Result) {
	preds := make([]Prediction, len(items))
	var miss []int
	valid := 0
next:
	for i := range items {
		it := &items[i]
		if it.f == nil {
			continue
		}
		valid++
		if p.cache != nil {
			if !it.memo || p.cache.hash != nil {
				it.fp = p.cache.key(it.f)
			}
			var ok bool
			if preds[i], ok = p.cache.get(it.fp, it.f); ok {
				continue
			}
			for _, j := range miss {
				if items[j].fp == it.fp && equalBits(items[j].f, it.f) {
					it.dupOf = j + 1
					continue next
				}
			}
		}
		miss = append(miss, i)
	}
	predictCount.Add(int64(valid))
	projHits.Add(int64(valid - len(miss)))
	if len(miss) > 0 {
		projMisses.Add(int64(len(miss)))
		p.compute(items, miss, preds, out)
	}
	for i := range items {
		if items[i].f == nil {
			continue
		}
		if j := items[i].dupOf; j > 0 {
			preds[i], out[i].Err = preds[j-1], out[j-1].Err
		}
		if out[i].Err == nil {
			out[i].Prediction = &preds[i]
		}
	}
}

// compute predicts the vectors of items[miss] — none of them cached, no two
// alike — into preds and out[·].Err, and caches the ones that succeeded.
func (p *Predictor) compute(items []batchItem, miss []int, preds []Prediction, out []Result) {
	qs := make([][]float64, len(miss))
	for k, i := range miss {
		qs[k] = items[i].f
	}
	projs, maxKs := p.model.ProjectBatch(qs)
	parallel.For(len(miss), func(k int) {
		i := miss[k]
		preds[i], out[i].Err = p.predictProjected(qs[k], projs[k], maxKs[k])
	})
	// Inserted in request order, not completion order, so what an LRU at
	// capacity evicts does not depend on scheduling. Errors are never cached.
	// The computed prediction leaves with its new entry's memo, like every
	// later copy of that entry (and every repeat of the vector in this batch).
	for _, i := range miss {
		if out[i].Err == nil {
			preds[i].Memo = p.cache.put(items[i].fp, items[i].f, preds[i])
		}
	}
}
