package shard

import (
	"context"
	"fmt"

	"repro/internal/coalesce"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/wal"
)

// Router-level metrics: how often the warm fallback rescues a cold shard,
// and how often routing itself fails. Where traffic lands is each shard's
// serve.shard.<id>.predictions.
var (
	routeFallbacks = obs.GetCounter("serve.router.fallbacks")
	routeCold      = obs.GetCounter("serve.router.cold")
	routeErrors    = obs.GetCounter("serve.router.errors")
)

// ShardConfig describes one shard at construction time.
type ShardConfig struct {
	// Boot, when non-nil, is published as the shard's generation 1 so the
	// shard serves immediately — the KCCA shorthand for BootModel (wrapped
	// automatically). Ignored when BootModel is set.
	Boot *core.Predictor
	// BootModel, when non-nil, is the boot model of any kind.
	BootModel model.Model
	// Zoo, when non-nil, enables champion/challenger operation: shadow
	// scoring of every configured kind on the observe path and automatic
	// promotion through the generation slot.
	Zoo *ZooConfig
	// Sliding, when non-nil, enables observation feedback and background
	// retrains; the shard's observe goroutine takes sole ownership of it.
	Sliding *core.SlidingPredictor
	// Store, when non-nil, makes the shard's state durable: every
	// observation is WAL-logged before it is applied, and the sliding
	// state is snapshotted periodically and at drain. The shard takes
	// ownership and closes it on drain.
	Store *wal.Store
	// BootGen, with Store, is the model generation recovered from durable
	// state; when positive (and Boot is nil) the shard publishes
	// Sliding's recovered model at that generation instead of starting
	// over at 1.
	BootGen int64
}

// Router fans predict and observe traffic across shards according to a
// Partitioner, merging batch results in input order with per-request
// errors preserved. Create with NewRouter, stop with Close.
type Router struct {
	shards []*Shard
	part   Partitioner
	// warmFallback routes a predict aimed at a cold shard to the warmest
	// available shard (lowest-index ready shard) instead of failing it,
	// until the owner's window reaches the training minimum and its first
	// retrain lands.
	warmFallback bool
}

// NewRouter builds one shard per ShardConfig and starts their background
// loops. warmFallback enables cold-start rescue: predicts for a shard with
// no model yet are served by the lowest-index ready shard until the owner
// warms up (observations always go to the owner, so it does warm up).
func NewRouter(shards []ShardConfig, part Partitioner, cfg Config, warmFallback bool) (*Router, error) {
	if len(shards) == 0 {
		return nil, ErrNoShards
	}
	if part == nil {
		return nil, fmt.Errorf("shard: router needs a partitioner")
	}
	cfg.fill()
	r := &Router{part: part, warmFallback: warmFallback}
	for i, sc := range shards {
		if sc.Boot == nil && sc.BootModel == nil && sc.Sliding == nil && sc.Zoo == nil {
			return nil, fmt.Errorf("shard: shard %d needs a boot model or a sliding window", i)
		}
		if sc.Store != nil && sc.Sliding == nil {
			return nil, fmt.Errorf("shard: shard %d has a durable store and no sliding window to persist", i)
		}
		s, err := newShard(i, sc, cfg)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		r.shards = append(r.shards, s)
	}
	return r, nil
}

// Close drains every shard; safe to call more than once.
func (r *Router) Close() {
	for _, s := range r.shards {
		s.close()
	}
}

// NumShards returns the shard count.
func (r *Router) NumShards() int { return len(r.shards) }

// Sharded reports whether the tier has more than one shard (when false the
// serving layer leaves the shard fields off the wire).
func (r *Router) Sharded() bool { return len(r.shards) > 1 }

// Partitioner returns the router's partitioner.
func (r *Router) Partitioner() Partitioner { return r.part }

// Shard returns shard i.
func (r *Router) Shard(i int) *Shard { return r.shards[i] }

// HasFeedback reports whether any shard has a sliding window (observation
// feedback). A router over static boot models serves predictions only.
func (r *Router) HasFeedback() bool {
	for _, s := range r.shards {
		if s.sliding != nil {
			return true
		}
	}
	return false
}

// AnyReady reports whether at least one shard serves a model — the tier's
// readiness condition (cold shards are rescued by the warm fallback or fail
// per-request).
func (r *Router) AnyReady() bool {
	for _, s := range r.shards {
		if s.Ready() {
			return true
		}
	}
	return false
}

// Target resolves the shard that will serve a predict for q: the
// partitioner's pick, or — when that shard is cold and the warm fallback is
// on — the lowest-index ready shard. The returned owner is the
// partitioner's pick either way (it is what responses report). A cold
// target with no rescue available returns core.ErrNotTrained.
func (r *Router) Target(q *dataset.Query) (sh *Shard, owner int, err error) {
	owner, err = r.part.RoutePredict(q)
	if err != nil {
		routeErrors.Inc()
		return nil, 0, err
	}
	if owner < 0 || owner >= len(r.shards) {
		routeErrors.Inc()
		return nil, 0, fmt.Errorf("shard: partitioner %s routed to %d of %d shards", r.part.Name(), owner, len(r.shards))
	}
	if s := r.shards[owner]; s.Ready() {
		return s, owner, nil
	}
	routeCold.Inc()
	if r.warmFallback {
		for _, s := range r.shards {
			if s.Ready() {
				routeFallbacks.Inc()
				return s, owner, nil
			}
		}
	}
	return nil, owner, fmt.Errorf("%w: shard %d has no model yet", core.ErrNotTrained, owner)
}

// Outcome is the result of one routed prediction: the shard that owns the
// query, the generation that answered, and either a prediction (in
// Res.Prediction) or an error. Routing and queueing failures land in Err;
// model-level failures land in Res.Err.
type Outcome struct {
	Res core.Result
	Gen int64
	// Shard is the owning shard per the partitioner (what responses
	// report), even when the warm fallback served the request.
	Shard int
	// Served is the shard that actually answered — equal to Shard except
	// when the cold-start fallback rerouted the request to a warm shard.
	Served int
	// Kind is the model kind that answered, so fallback answers are
	// attributed to the model family that actually produced them.
	Kind string
	Err  error
}

// fan is the share of one Predict call served by one shard: a group, and
// where each of its items sits in the caller's input order.
type fan struct {
	g   coalesce.Group
	idx []int
	n   int // the share's size, counted before idx and the items are sized
}

// Predict routes each planned query to its shard, admits each shard's share
// as one group, and merges the results back in input order. Per-request
// errors are preserved — a query that fails to route fails alone, and a
// shard whose queue has no room for its share refuses that share without
// voiding the other shards'. The context bounds the whole fan-out: when it
// expires, still-pending outcomes carry ctx.Err() and their groups are
// abandoned (the owning shard skips them).
func (r *Router) Predict(ctx context.Context, qs []*dataset.Query) []Outcome {
	outs := make([]Outcome, len(qs))
	fans := make([]fan, len(r.shards))
	for i, q := range qs {
		sh, owner, err := r.Target(q)
		outs[i].Shard = owner
		if err != nil {
			outs[i].Served = owner
			outs[i].Err = err
			continue
		}
		outs[i].Served = sh.ID
		fans[sh.ID].n++
	}
	for i, q := range qs {
		if outs[i].Err != nil {
			continue
		}
		f := &fans[outs[i].Served]
		if f.idx == nil {
			f.g = coalesce.Group{Ctx: ctx, Items: make([]coalesce.Item, 0, f.n)}
			f.idx = make([]int, 0, f.n)
		}
		f.g.Items = append(f.g.Items, coalesce.Item{Req: core.Request{Query: q}})
		f.idx = append(f.idx, i)
	}
	fail := func(f *fan, err error) {
		for _, i := range f.idx {
			outs[i].Err = err
		}
		f.idx = nil
	}
	for id := range fans {
		if f := &fans[id]; f.idx != nil {
			if err := r.shards[id].queue.Admit(&f.g); err != nil {
				fail(f, err)
			}
		}
	}
	for id := range fans {
		f := &fans[id]
		if f.idx == nil {
			continue
		}
		if err := f.g.Wait(); err != nil {
			fail(f, err)
			continue
		}
		for k, i := range f.idx {
			it := &f.g.Items[k]
			outs[i].Res, outs[i].Gen, outs[i].Kind = it.Res, it.Gen, it.Kind
		}
	}
	return outs
}

// ObserveBatch routes every executed query (Metrics and Category populated)
// to its owning shard's feedback queue and returns the owners in input
// order. Observations never fall back: they must warm the owner. The batch
// is admitted whole or not at all: every query is routed first (a routing
// failure names the observation), then each owning shard's admission lock
// is taken, in shard order, and only when every owner's queue has room for
// its share (see admitObserve) are the shares sent. Otherwise the error is
// the first refusing shard's — ErrOverloaded, ErrDraining or a static model
// — and nothing from the batch was queued, so a client's retry feeds no
// observation twice.
func (r *Router) ObserveBatch(qs []*dataset.Query) ([]int, error) {
	owners := make([]int, len(qs))
	shares := make([][]*dataset.Query, len(r.shards))
	for i, q := range qs {
		owner, err := r.part.RouteObserve(q)
		if err == nil && (owner < 0 || owner >= len(r.shards)) {
			err = fmt.Errorf("shard: partitioner %s routed to %d of %d shards", r.part.Name(), owner, len(r.shards))
		}
		if err != nil {
			routeErrors.Inc()
			return nil, fmt.Errorf("observation %d: %w", i, err)
		}
		owners[i] = owner
		shares[owner] = append(shares[owner], q)
	}
	for id, share := range shares {
		if share == nil {
			continue
		}
		s := r.shards[id]
		s.mu.Lock()
		defer s.mu.Unlock()
		if err := s.admitObserve(len(share)); err != nil {
			return nil, err
		}
	}
	for id, share := range shares {
		if share != nil {
			r.shards[id].enqueueObserve(share)
		}
	}
	return owners, nil
}

// ObserveSync applies one observation synchronously on the caller's
// goroutine, retraining and hot-swapping inline when due — the embedding
// and benchmark path (no HTTP, no background queue). Do not mix with
// concurrent Observe traffic on the same shard: both paths are safe, but
// interleaving makes retrain timing nondeterministic.
func (r *Router) ObserveSync(q *dataset.Query) (int, error) {
	owner, err := r.part.RouteObserve(q)
	if err != nil {
		return 0, err
	}
	if owner < 0 || owner >= len(r.shards) {
		return 0, fmt.Errorf("shard: partitioner %s routed to %d of %d shards", r.part.Name(), owner, len(r.shards))
	}
	s := r.shards[owner]
	if s.sliding == nil {
		return owner, fmt.Errorf("shard %d: no sliding window (static model)", owner)
	}
	return owner, s.apply(q)
}

// TotalWindow sums the mirrored window occupancy across shards.
func (r *Router) TotalWindow() int {
	total := 0
	for _, s := range r.shards {
		total += s.WindowSize()
	}
	return total
}

// MaxGeneration returns the highest generation served by any shard (0 when
// every shard is cold).
func (r *Router) MaxGeneration() int64 {
	var max int64
	for _, s := range r.shards {
		if m := s.Model(); m != nil && m.Gen > max {
			max = m.Gen
		}
	}
	return max
}
