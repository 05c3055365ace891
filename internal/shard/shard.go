// Package shard is the serving engine — the only one: every qpredictd and
// every serve.Server predicts and retrains through a Router of N ≥ 1 shards.
// It partitions observe and predict traffic across per-shard
// core.SlidingPredictors, each with its own window, model generation,
// micro-batch coalescer, and background retrain loop — the LinkedIn
// production finding (per-workload models beat one global model) turned
// into infrastructure. A Router owns N Shards and a pluggable Partitioner;
// predict requests are routed to the owning shard
// (falling back to a warm shard while the owner is cold), multi-request
// batches fan out and merge back in input order with per-request errors
// preserved, and each shard retrains from only its own observations — so
// retrain cost scales with per-shard window size instead of fleet size.
//
// The hot-swap discipline lives in Slot: predictions read an atomic pointer,
// completed retrains and promotions swap a new generation in (Shard.Publish)
// without blocking a read, and generations only move forward. One shard
// behind the Passthrough partitioner is the stock daemon; on the wire it is
// byte-identical to the single-model engine internal/serve carried before
// it (internal/serve's TestShardedSingleEquivalence holds that engine's
// recorded responses against it).
package shard

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/coalesce"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/wal"
)

// Tier-wide serving metrics: one series each, summed over the shards.
// Per-shard instruments (serve.shard.<id>.*) live on each Shard; the predict
// queue's own series are recorded by internal/coalesce.
var (
	modelSwaps    = obs.GetCounter("serve.model.swaps")
	retrainErrors = obs.GetCounter("serve.retrain.errors")
	rejectedLoad  = obs.GetCounter("serve.rejected.overload")
	snapshotFails = obs.GetCounter("wal.snapshot.errors")
	// observeDepth counts observations admitted by Router.ObserveBatch and
	// not yet taken by an observe loop, over every shard.
	observeDepth = obs.GetGauge("serve.observe.queue_depth")
)

// Sentinel errors of the shard tier.
var (
	// ErrOverloaded: the target shard's bounded queue is full; shed and
	// retry (HTTP 429 at the serving layer).
	ErrOverloaded = coalesce.ErrFull
	// ErrDraining: the tier is shutting down.
	ErrDraining = coalesce.ErrClosed
	// ErrNoShards: a router was built with zero shards.
	ErrNoShards = errors.New("shard: router has no shards")
)

// Config carries the per-shard serving knobs, shared by every shard of one
// Router.
type Config struct {
	// Window is how long a shard's coalescer holds an open micro-batch for
	// more arrivals. Zero never waits: an idle shard dispatches at once and
	// a batch is whatever queued while the previous one ran.
	Window time.Duration
	// MaxBatch caps a micro-batch, in queries (default 64).
	MaxBatch int
	// QueueCap bounds each shard's pending queries (default 1024); a group
	// that does not fit whole is rejected with ErrOverloaded unless nothing
	// is pending.
	QueueCap int
}

func (c *Config) fill() {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 1024
	}
}

// Shard is one model partition: a sliding retraining window, a
// hot-swappable model slot, a micro-batch coalescer, and an observe loop —
// the full serving spine, owned per partition so shards never contend.
// Create via NewRouter.
type Shard struct {
	// ID is the shard's index in its router, also the <id> of its
	// serve.shard.<id>.* metrics.
	ID int

	slot    Slot
	sliding *core.SlidingPredictor
	// zoo, when non-nil, runs champion/challenger shadow evaluation on the
	// observe path and promotes challengers through the slot.
	zoo *zoo
	// store, when non-nil, is the shard's durable state: the observe loop
	// WAL-logs each observation before applying it and snapshots the
	// sliding state periodically and at drain. Owned by the observe
	// goroutine after construction.
	store *wal.Store

	// mu is the shard's admission lock: it guards closed, and every
	// check-then-send on observeCh happens under it.
	mu     sync.Mutex
	closed bool

	// queue is the shard's micro-batching queue and its coalescer goroutine
	// (see runBatch) — per shard, so a slow shard stalls only its own queue
	// and requests on other shards proceed within their own deadlines.
	queue *coalesce.Queue

	// observeCh carries admitted shares of observe batches to the observe
	// loop; observePending counts their queries not yet taken, and is what
	// admission holds against the queue bound, the channel's capacity.
	observeCh      chan []*dataset.Query
	observePending atomic.Int64
	observeDone    chan struct{}
	// windowSize mirrors the sliding window's occupancy so callers can
	// report it without touching the goroutine-owned SlidingPredictor.
	windowSize atomic.Int64
	// nPredicts/nObserved are this instance's own counts. The obs metrics
	// below are process-global (keyed by shard index, shared across router
	// instances); these are what /v1/shards and tests read.
	nPredicts atomic.Int64
	nObserved atomic.Int64

	// Per-shard instruments.
	mWindow   *obs.Gauge
	mSwaps    *obs.Counter
	mPredicts *obs.Counter
	mObserved *obs.Counter

	// batchHook, when set (tests only), runs before each micro-batch is
	// predicted — it is how tests make one shard artificially slow.
	batchHook func()
}

// newShard wires one shard. sc.BootModel (or sc.Boot, the KCCA shorthand)
// is published as generation 1; sc.Sliding (optional) enables observation
// feedback and background retrains. With a store and a positive BootGen the
// recovered model is published at the generation it held before the
// restart. sc.Zoo enables champion/challenger operation.
func newShard(id int, sc ShardConfig, cfg Config) (*Shard, error) {
	s := &Shard{
		ID:        id,
		sliding:   sc.Sliding,
		store:     sc.Store,
		mWindow:   obs.GetGauge(fmt.Sprintf("serve.shard.%d.window", id)),
		mSwaps:    obs.GetCounter(fmt.Sprintf("serve.shard.%d.swaps", id)),
		mPredicts: obs.GetCounter(fmt.Sprintf("serve.shard.%d.predictions", id)),
		mObserved: obs.GetCounter(fmt.Sprintf("serve.shard.%d.observed", id)),
	}
	boot := sc.BootModel
	if boot == nil && sc.Boot != nil {
		boot = model.WrapKCCA(sc.Boot)
	}
	if boot == nil && sc.Sliding != nil && sc.Sliding.Ready() {
		boot = model.WrapKCCA(sc.Sliding.Current())
	}
	if sc.Zoo != nil {
		var err error
		s.zoo, boot, err = buildZoo(&sc, boot)
		if err != nil {
			return nil, err
		}
		// A non-KCCA champion with no seed and a warm window trains at
		// boot so the shard serves immediately; failure leaves the shard
		// cold until the first retrain fills the zoo.
		if boot == nil && sc.Sliding != nil && sc.Sliding.WindowSize() > 0 {
			s.zoo.onRetrain(sc.Sliding.Current(), sc.Sliding.Window())
			boot = s.zoo.championModel()
		}
	}
	switch {
	case boot != nil && sc.BootGen > 0:
		s.slot.Restore(boot, sc.BootGen)
	case boot != nil:
		s.slot.Swap(boot)
	}
	if s.zoo != nil {
		s.zoo.sinceGen.Store(s.generation())
	}
	s.queue = coalesce.Start(coalesce.Config(cfg), s.runBatch)
	if s.sliding != nil {
		// Every queued share holds at least one pending query and admission
		// keeps those at most QueueCap unless the queue is empty, so a send
		// under the admission lock never blocks.
		s.observeCh = make(chan []*dataset.Query, cfg.QueueCap)
		s.observeDone = make(chan struct{})
		s.windowSize.Store(int64(s.sliding.WindowSize()))
		s.mWindow.Set(s.windowSize.Load())
		go s.observeLoop()
	}
	return s, nil
}

// Ready reports whether this shard serves a model.
func (s *Shard) Ready() bool { return s.slot.Get() != nil }

// Model returns the shard's current served model, or nil while cold.
func (s *Shard) Model() *Served { return s.slot.Get() }

// WindowSize returns the mirrored occupancy of the shard's sliding window.
func (s *Shard) WindowSize() int { return int(s.windowSize.Load()) }

// Predictions returns how many predictions this shard has served.
func (s *Shard) Predictions() int64 { return s.nPredicts.Load() }

// Observed returns how many observations this shard has applied.
func (s *Shard) Observed() int64 { return s.nObserved.Load() }

// Recovery returns what this shard's durable-state recovery did, or nil
// when the shard runs without a store. The info is immutable after boot.
func (s *Shard) Recovery() *wal.RecoveryInfo {
	if s.store == nil {
		return nil
	}
	info := s.store.Info()
	return &info
}

// admitObserve reports whether the shard's observe queue takes a share of n
// queries now: nil when it does, the reason when it does not. The rule is
// predict admission's: a share fits whole beside what is pending, or the
// queue is empty. The caller holds s.mu and, on nil, sends the share before
// releasing it.
func (s *Shard) admitObserve(n int) error {
	switch {
	case s.closed:
		return ErrDraining
	case s.observeCh == nil:
		return fmt.Errorf("shard %d: no sliding window (static model)", s.ID)
	}
	if p := s.observePending.Load(); p > 0 && p+int64(n) > int64(cap(s.observeCh)) {
		rejectedLoad.Inc()
		return ErrOverloaded
	}
	return nil
}

// enqueueObserve sends an admitted share to the observe loop. The caller
// holds s.mu.
func (s *Shard) enqueueObserve(share []*dataset.Query) {
	s.observePending.Add(int64(len(share)))
	observeDepth.Add(int64(len(share)))
	s.observeCh <- share
}

// apply is the one per-observation path: WAL-log, shadow-score, slide the
// window (retraining when due), publish a completed retrain, promote, and
// persist. The observe loop runs it for every queued observation;
// Router.ObserveSync runs it on the caller's goroutine — the
// embedding/benchmark path, bypassing the observe queue. SlidingPredictor is
// internally synchronized, so the two may run side by side, but do not mix
// them on a durable shard: the store is single-owner.
func (s *Shard) apply(q *dataset.Query) error {
	seq := s.logObservation(q)
	// Shadow-score before the window sees the query: every model is
	// evaluated on data it has never trained on.
	s.shadowScore(q)
	before := s.sliding.Retrains()
	err := s.sliding.Observe(q)
	s.afterObserve(before, err)
	s.maybePromote()
	s.persistApplied(seq)
	return err
}

// logObservation WAL-logs one observation ahead of applying it. A failed
// append is counted (wal.append.errors) but does not fail the observation
// — availability over durability; the record is simply absent from a
// future replay.
func (s *Shard) logObservation(q *dataset.Query) uint64 {
	if s.store == nil {
		return 0
	}
	seq, _ := s.store.Append(q.SQL, q.Metrics)
	return seq
}

// persistApplied completes the write-ahead cycle for one observation and
// snapshots the sliding state when due.
func (s *Shard) persistApplied(seq uint64) {
	if s.store == nil {
		return
	}
	s.store.Applied(seq)
	if err := s.store.MaybeSnapshot(s.sliding, s.generation()); err != nil {
		snapshotFails.Inc()
	}
}

// generation returns the currently served model generation (0 while cold).
func (s *Shard) generation() int64 {
	if m := s.slot.Get(); m != nil {
		return m.Gen
	}
	return 0
}

// afterObserve updates mirrors and publishes a completed retrain.
func (s *Shard) afterObserve(retrainsBefore int, err error) {
	if err != nil {
		// A failed retrain (for example a degenerate window) keeps the
		// previous model serving; the observation itself is retained.
		retrainErrors.Inc()
	}
	s.windowSize.Store(int64(s.sliding.WindowSize()))
	s.mWindow.Set(s.windowSize.Load())
	s.nObserved.Add(1)
	s.mObserved.Inc()
	if s.sliding.Retrains() != retrainsBefore {
		cur := s.sliding.Current()
		var m model.Model
		if s.zoo != nil {
			// Refresh every zoo kind from the new window, then publish
			// whichever kind is champion right now.
			s.zoo.onRetrain(cur, s.sliding.Window())
			m = s.zoo.championModel()
		}
		if m == nil {
			m = model.WrapKCCA(cur)
		}
		s.Publish(m)
	}
}

// Publish hot-swaps m in as the shard's next generation, without blocking a
// read, and returns that generation. Completed retrains and promotions
// publish through it; so may an embedder that trained a model elsewhere.
func (s *Shard) Publish(m model.Model) int64 {
	gen := s.slot.Swap(m)
	s.mSwaps.Inc()
	modelSwaps.Inc()
	return gen
}

// observeLoop is the single goroutine driving this shard's
// SlidingPredictor: observations stream in through the bounded channel, the
// window's periodic retrains happen here off the request path, and each
// completed retrain is atomically swapped into the shard's slot.
func (s *Shard) observeLoop() {
	defer close(s.observeDone)
	for share := range s.observeCh {
		for _, q := range share {
			s.observePending.Add(-1)
			observeDepth.Add(-1)
			s.apply(q) // a failed retrain is counted; the previous model keeps serving
		}
	}
}

// runBatch answers one micro-batch with one model: the slot is read once,
// so every item in the batch is served by the same generation even while
// retrains swap the slot concurrently. Groups whose submitting context is
// already done are answered with its error and excluded from the predict
// call — an abandoned request costs nothing past its deadline.
func (s *Shard) runBatch(b *coalesce.Batch) {
	if s.batchHook != nil {
		s.batchHook()
	}
	reqs := b.Live()
	if len(reqs) == 0 {
		return
	}
	m := s.slot.Get()
	results := m.Model.Predict(reqs...)
	s.nPredicts.Add(int64(len(reqs)))
	s.mPredicts.Add(int64(len(reqs)))
	b.Answer(results, m.Gen, m.Model.Kind())
}

// close drains the shard: new submissions are refused, in-flight
// micro-batches and queued observations finish, and both background
// goroutines exit before close returns. Idempotent.
func (s *Shard) close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	if s.observeCh != nil {
		close(s.observeCh)
	}
	s.mu.Unlock()
	s.queue.Close()
	if s.observeDone != nil {
		<-s.observeDone
	}
	if s.store != nil {
		// Final snapshot at drain: the next boot restores it directly
		// instead of replaying the tail.
		if err := s.store.Close(s.sliding, s.generation()); err != nil {
			snapshotFails.Inc()
		}
	}
}
