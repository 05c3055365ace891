// Package core is the library's primary public surface: the query
// performance predictor of the paper. A Predictor is trained from executed
// queries (their plans or SQL text on the feature side, their measured
// metrics on the performance side) and predicts all six performance
// metrics for unseen queries using only pre-execution information,
// following the KCCA + k-nearest-neighbor pipeline of Secs. VI and VII.
//
// Both prediction strategies from the paper are provided: the one-model
// predictor (Experiment 1) and the two-step predictor (Experiment 3) that
// first classifies a query as feather / golf ball / bowling ball using the
// global model's neighbors and then predicts with a query-type-specific
// model. Each prediction carries a confidence derived from neighbor
// distance (Sec. VII-C.3).
package core

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/features"
	"repro/internal/kcca"
	"repro/internal/knn"
	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/statutil"
	"repro/internal/workload"
)

// FeatureKind selects the query-side feature vector.
type FeatureKind int

const (
	// PlanFeatures is the Fig. 9 query plan vector — the paper's choice.
	PlanFeatures FeatureKind = iota
	// SQLFeatures is the Sec. VI-D.1 SQL text vector — shown inferior in
	// Fig. 8.
	SQLFeatures
)

func (f FeatureKind) String() string {
	if f == SQLFeatures {
		return "sql-text"
	}
	return "query-plan"
}

// Options configures predictor training.
type Options struct {
	Features FeatureKind
	KCCA     kcca.Options
	KNN      knn.Options
	// TwoStep enables the Experiment 3 strategy: classify the query type
	// from the global model's neighbors, then predict with a
	// type-specific model.
	TwoStep bool
	// MinTypeModel is the smallest per-type training set for which a
	// type-specific model is built (smaller types fall back to the global
	// model). Zero selects a default.
	MinTypeModel int
}

// DefaultOptions returns the paper's final configuration: plan features,
// Gaussian kernels with the 0.1/0.2 scale fractions, k = 3 Euclidean
// neighbors with equal weighting, one-model prediction.
func DefaultOptions() Options {
	return Options{
		Features: PlanFeatures,
		KCCA:     kcca.DefaultOptions(),
		KNN:      knn.DefaultOptions(),
	}
}

// Prediction is the result of predicting one query.
type Prediction struct {
	// Metrics are the predicted performance metrics.
	Metrics exec.Metrics
	// Category is the predicted query type (by predicted elapsed time for
	// one-model prediction; by neighbor vote for two-step).
	Category workload.Category
	// Confidence in (0, 1]: low values flag anomalous queries whose
	// neighbors are far away (Sec. VII-C.3).
	Confidence float64
	// Neighbors are the training-set indexes used. Read-only: predictions
	// of the same feature vector by one Predictor share the backing array
	// (see Predict).
	Neighbors []knn.Neighbor
	// Memo is non-nil on a prediction that is, field for field, an entry of
	// a Predictor's prediction cache — just inserted or copied out: that
	// entry's one Memo (see Memo). Whoever changes another field of such a
	// copy must set Memo to nil.
	Memo *Memo
}

// Memo is a slot for bytes derived from a cached Prediction by whoever
// serves it — the HTTP layer keeps the prediction's encoded wire form
// there, so a repeated plan is not formatted twice. core allocates one per
// prediction-cache entry (projCache.put, and nothing else, attaches it) and
// never reads it; it dies with the entry, at the latest when a swap retires
// the Predictor. Within one generation everything but Memo in the
// Prediction beside it is the same for every holder, so racing writers
// store equal bytes.
type Memo = atomic.Pointer[[]byte]

// ModelKind names the model family a Predictor is — the paper's KCCA + kNN
// pipeline — as every response's model_kind reports it.
const ModelKind = "kcca"

// Predictor predicts query performance metrics before execution.
type Predictor struct {
	opt Options

	model     *kcca.Model
	perfRaw   *linalg.Matrix // raw metrics, one row per training query
	cats      []workload.Category
	confScale float64
	// kernelScale is the typical leave-one-out maximum kernel similarity
	// among training queries, used to calibrate the in-distribution factor
	// of confidence scores.
	kernelScale float64

	// Two-step: per-category sub-models (nil entries fall back to the
	// global model).
	sub map[workload.Category]*Predictor

	// cache memoizes feature vector → Prediction for this model generation
	// and these k-NN options; it dies with the Predictor, so a hot-swap to a
	// new generation implicitly invalidates every cached prediction.
	cache *projCache

	// index is the exact k-NN index over this generation's projected
	// training points (knn.Index): built once alongside the model, immutable,
	// and retired with the Predictor on hot swap exactly like the prediction
	// cache. It answers bit for bit as knn.Nearest would.
	index *knn.Index
}

// Train/predict metrics: latency distributions for the public entry points
// and a count of predictions served.
var (
	trainSeconds   = obs.GetHistogram("core.train.seconds")
	predictSeconds = obs.GetHistogram("core.predict.seconds")
	batchSize      = obs.GetHistogram("core.predict_batch.size")
	predictCount   = obs.GetCounter("core.predict.count")
)

// queryFeature extracts the configured feature vector for one query.
func queryFeature(q *dataset.Query, kind FeatureKind) ([]float64, error) {
	switch kind {
	case SQLFeatures:
		return features.SQLVector(q.SQL)
	default:
		if q.PlanFeat != nil {
			// Memoized by the plan cache: PlanVector is a pure function of
			// the plan, so the shared slice is bit-identical to extracting
			// fresh. Treated as read-only everywhere downstream.
			return q.PlanFeat, nil
		}
		if q.Plan == nil {
			return nil, ErrNoPlan
		}
		return features.PlanVector(q.Plan), nil
	}
}

// normalizeOptions fills defaulted option fields; Train and the sliding
// predictor's training paths share it so every Predictor sees identical
// resolved options.
func normalizeOptions(opt Options) Options {
	if opt.KNN.K <= 0 {
		opt.KNN = knn.DefaultOptions()
	}
	if opt.MinTypeModel <= 0 {
		opt.MinTypeModel = 12
	}
	return opt
}

// extractFeatures builds the KCCA training inputs from executed queries:
// query-side features x, raw metric rows for neighbor combination, and the
// observed categories — all row-aligned with the input order.
func extractFeatures(train []*dataset.Query, kind FeatureKind) (x *linalg.Matrix, rawRows [][]float64, cats []workload.Category, err error) {
	xRows := make([][]float64, len(train))
	rawRows = make([][]float64, len(train))
	cats = make([]workload.Category, len(train))
	for i, q := range train {
		f, ferr := queryFeature(q, kind)
		if ferr != nil {
			return nil, nil, nil, fmt.Errorf("core: query %d: %w", q.ID, ferr)
		}
		xRows[i] = f
		rawRows[i] = features.PerfRawVector(q.Metrics)
		cats[i] = q.Category
	}
	return features.Matrices(xRows), rawRows, cats, nil
}

// newPredictor assembles a Predictor around a KCCA model: the raw metric
// matrix and categories (row-aligned with the model), the k-NN index,
// calibrated confidence scales, and a fresh prediction cache for this model
// generation. Train and Load both build every Predictor here, so a loaded
// predictor's index and scales are the trained one's bit for bit.
func newPredictor(model *kcca.Model, perfRaw *linalg.Matrix, cats []workload.Category, opt Options) *Predictor {
	p := &Predictor{
		opt:     opt,
		model:   model,
		perfRaw: perfRaw,
		cats:    cats,
		cache:   newProjCache(0),
		index:   knn.NewIndex(model.QueryProj, opt.KNN.Distance),
	}
	p.confScale, p.kernelScale = p.referenceScales()
	return p
}

// Train fits a predictor on executed training queries.
func Train(train []*dataset.Query, opt Options) (*Predictor, error) {
	defer trainSeconds.Since(time.Now())
	if len(train) < 5 {
		return nil, fmt.Errorf("%w: need at least 5, have %d", ErrTooFewQueries, len(train))
	}
	opt = normalizeOptions(opt)

	x, rawRows, cats, err := extractFeatures(train, opt.Features)
	if err != nil {
		return nil, err
	}
	model, err := kcca.Train(x, opt.KCCA)
	if err != nil {
		return nil, fmt.Errorf("core: KCCA training: %w", err)
	}
	p := newPredictor(model, features.Matrices(rawRows), cats, opt)

	if opt.TwoStep {
		p.sub = map[workload.Category]*Predictor{}
		byCat := map[workload.Category][]*dataset.Query{}
		for _, q := range train {
			// Wrecking balls share the bowling-ball model, as in the
			// paper's pools.
			c := q.Category
			if c == workload.WreckingBall {
				c = workload.BowlingBall
			}
			byCat[c] = append(byCat[c], q)
		}
		subOpt := opt
		subOpt.TwoStep = false
		for c, qs := range byCat {
			if len(qs) < opt.MinTypeModel {
				continue // fall back to the global model for this type
			}
			sp, err := Train(qs, subOpt)
			if err != nil {
				continue
			}
			p.sub[c] = sp
		}
	}
	return p, nil
}

// referenceScales estimates, from a training sample, the typical
// nearest-neighbor distance in the query projection and the typical
// leave-one-out maximum kernel similarity. Both are used to calibrate
// confidence so that ordinary in-distribution queries score near 1.
func (p *Predictor) referenceScales() (distScale, kernelScale float64) {
	n := p.model.N()
	sample := n
	if sample > 60 {
		sample = 60
	}
	r := statutil.NewRNG(17, "confscale")
	idx := r.SampleInts(n, sample)
	dists := make([]float64, 0, sample)
	maxKs := make([]float64, 0, sample)
	k := p.opt.KNN.K
	if k < 1 {
		k = 3
	}
	// The distance scale is Euclidean whatever metric predictions search by.
	ix := p.index
	if ix.Metric() != knn.Euclidean {
		ix = knn.NewIndex(p.model.QueryProj, knn.Euclidean)
	}
	var near []float64
	row := make([]float64, n)
	for _, i := range idx {
		// Mean distance to the k nearest other training points — the same
		// statistic Confidence computes for a prediction. The index answers
		// it with the float64s a scan of linalg.Dist over every other row and
		// a sort would: (a−b)² is (b−a)², the terms are added in the same
		// order, and the k smallest come back ascending — so the mean adds
		// the same values in the same order too (TestReferenceScalesMatchScan
		// keeps the scan). Nor does the question count as a search this
		// generation served.
		near = near[:0]
		for _, nb := range ix.LeaveOneOut(i, k) {
			near = append(near, nb.Distance)
		}
		if len(near) > 0 {
			dists = append(dists, linalg.Mean(near))
		}
		// The largest kernel value against every other training point: one
		// cross-kernel vector per sampled row, Gaussian's values bit for bit.
		bestK := 0.0
		for j, kv := range p.model.TrainingKernelInto(row, i) {
			if j != i && kv > bestK {
				bestK = kv
			}
		}
		maxKs = append(maxKs, bestK)
	}
	distScale = 3 * statutil.Quantile(dists, 0.9)
	if !(distScale > 0) {
		distScale = 1
	}
	kernelScale = statutil.Quantile(maxKs, 0.5)
	if !(kernelScale > 0) {
		kernelScale = 1
	}
	return distScale, kernelScale
}

// PredictQuery predicts the metrics of a planned (but not executed) query.
// It is a thin wrapper over Predict — the canonical Request/Result
// entrypoint — kept for callers with exactly one planned query in hand.
func (p *Predictor) PredictQuery(q *dataset.Query) (*Prediction, error) {
	r := p.Predict(Request{Query: q})[0]
	return r.Prediction, r.Err
}

// PredictBatch predicts many queries at once. It is a thin wrapper over
// Predict that keeps the historical all-or-nothing contract: results are
// positionally identical to calling PredictQuery in a loop, and the first
// error encountered (by query order) voids the whole batch. Callers that
// want per-query errors use Predict directly.
func (p *Predictor) PredictBatch(qs []*dataset.Query) ([]*Prediction, error) {
	reqs := make([]Request, len(qs))
	for i, q := range qs {
		reqs[i] = Request{Query: q}
	}
	results := p.Predict(reqs...)
	preds := make([]*Prediction, len(qs))
	for i, r := range results {
		if r.Err != nil {
			return nil, fmt.Errorf("core: batch query %d: %w", i, r.Err)
		}
		preds[i] = r.Prediction
	}
	return preds, nil
}

// PredictVector predicts from a raw query feature vector. It is a thin
// wrapper over Predict kept for callers that extract features themselves.
func (p *Predictor) PredictVector(f []float64) (*Prediction, error) {
	r := p.Predict(Request{Vector: f})[0]
	return r.Prediction, r.Err
}

// predictVector is the Fig. 7 pipeline on a validated feature vector. It is
// predictVectors at size one, for the two-step type-specific sub-models —
// which therefore memoize in their own caches like any other Predictor.
func (p *Predictor) predictVector(f []float64) (Prediction, error) {
	var out [1]Result
	p.predictVectors([]batchItem{{f: f}}, out[:])
	if out[0].Err != nil {
		return Prediction{}, out[0].Err
	}
	return *out[0].Prediction, nil
}

// predictProjected finishes a prediction from the query's projection:
// find neighbors and combine them (directly or via the two-step
// type-specific model, which projects f again in its own space).
func (p *Predictor) predictProjected(f, proj []float64, maxK float64) (Prediction, error) {
	// Neighbor search goes through this generation's index — an exact scan,
	// so bit-identical to knn.Nearest on the projection matrix. Every search
	// offers every training point; what keeps it cheap is the order (sorted
	// once along the leading kernel-PCA component and visited outward from
	// the query, so the kth-best distance is small early) and the scorer
	// abandoning most candidates part-way, reading them (where the AVX2
	// kernels serve) from the index's own feature-major copy of the
	// projection: one vector-kernel pass over 16 rows of a 16-point block
	// settles most of it, and a block it does not settle is summed whole.
	// model.index's mean_abandoned does not depend on which scorer ran.
	nbs, err := p.index.Nearest(proj, p.opt.KNN.K)
	if err != nil {
		return Prediction{}, err
	}

	if p.opt.TwoStep {
		cat := p.voteCategory(nbs)
		if sub, ok := p.sub[cat]; ok {
			pred, err := sub.predictVector(f)
			if err == nil {
				// No longer what the sub-model's cache entry holds.
				pred.Category, pred.Memo = cat, nil
				return pred, nil
			}
		}
		// Fall back to the global model but keep the voted category.
		pred := p.combine(maxK, nbs)
		pred.Category = cat
		return pred, nil
	}

	pred := p.combine(maxK, nbs)
	pred.Category = workload.Categorize(pred.Metrics.ElapsedSec)
	return pred, nil
}

// combine merges the neighbors' raw metrics and scores confidence. maxK is
// the query's largest raw kernel similarity against the training set,
// computed by the projection step.
func (p *Predictor) combine(maxK float64, nbs []knn.Neighbor) Prediction {
	var vals [exec.NumMetrics]float64
	knn.CombineInto(vals[:], p.perfRaw, nbs, p.opt.KNN.Weighting)
	// Confidence combines projection-space neighbor distance with the raw
	// kernel similarity: a query far outside the training distribution has
	// a numerically zero kernel vector, so its projection coordinates are
	// meaningless even when they happen to land near a cluster. The kernel
	// factor is calibrated against the training set's own leave-one-out
	// similarities, so ordinary queries score near 1.
	kfac := maxK / p.kernelScale
	if kfac > 1 {
		kfac = 1
	}
	conf := knn.Confidence(nbs, p.confScale) * kfac
	return Prediction{
		Metrics:    exec.MetricsFromVector(vals[:]),
		Confidence: conf,
		Neighbors:  nbs,
	}
}

// voteCategory classifies the query type by majority vote over the
// neighbors' categories (ties broken toward the nearer neighbor's type),
// with wrecking balls counted as bowling balls.
func (p *Predictor) voteCategory(nbs []knn.Neighbor) workload.Category {
	votes := map[workload.Category]int{}
	for _, nb := range nbs {
		c := p.cats[nb.Index]
		if c == workload.WreckingBall {
			c = workload.BowlingBall
		}
		votes[c]++
	}
	type kv struct {
		c workload.Category
		n int
	}
	var list []kv
	for c, n := range votes {
		list = append(list, kv{c, n})
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].n != list[j].n {
			return list[i].n > list[j].n
		}
		// Tie: prefer the category of the nearest neighbor among the tied.
		return p.nearestRank(nbs, list[i].c) < p.nearestRank(nbs, list[j].c)
	})
	return list[0].c
}

func (p *Predictor) nearestRank(nbs []knn.Neighbor, c workload.Category) int {
	for rank, nb := range nbs {
		nc := p.cats[nb.Index]
		if nc == workload.WreckingBall {
			nc = workload.BowlingBall
		}
		if nc == c {
			return rank
		}
	}
	return len(nbs)
}

// WithKNN returns a predictor sharing this one's trained model but using
// different nearest-neighbor options — the Tables I-III design studies vary
// the distance metric, neighbor count, and weighting without retraining.
func (p *Predictor) WithKNN(opt knn.Options) *Predictor {
	clone := *p
	clone.opt.KNN = opt
	if opt.K <= 0 {
		clone.opt.KNN = knn.DefaultOptions()
	}
	// Cached predictions are a function of the k-NN options, so the clone
	// starts its own cache. Two-step sub-models keep their options and so,
	// rightly, their caches.
	clone.cache = newProjCache(0)
	// The index depends only on the point set and the metric: a changed
	// metric needs a rebuild (a sort and a copy — about 0.4 ms at the stock
	// 800 × 80), while k and weighting changes share this one's index.
	if clone.opt.KNN.Distance != p.opt.KNN.Distance {
		clone.index = knn.NewIndex(p.model.QueryProj, clone.opt.KNN.Distance)
	}
	// Confidence is calibrated on the mean distance to k neighbours, so a
	// changed k needs the distance scale Train would have computed for it
	// (the kernel scale does not depend on k).
	if clone.opt.KNN.K != p.opt.KNN.K {
		clone.confScale, _ = clone.referenceScales()
	}
	return &clone
}

// N returns the number of training queries.
func (p *Predictor) N() int { return p.model.N() }

// Options returns the options the predictor was trained with.
func (p *Predictor) Options() Options { return p.opt }

// Model exposes the underlying KCCA model (for inspection and plots).
func (p *Predictor) Model() *kcca.Model { return p.model }

// Index exposes this generation's k-nearest-neighbor index (for serving
// metadata and tests). It is immutable and scoped to this Predictor: a hot
// swap to a new generation retires it together with the prediction cache.
func (p *Predictor) Index() *knn.Index { return p.index }
