package shard

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/testutil"
	"repro/internal/workload"
)

// Shared fixture: one generated pool and one trained model (training
// dominates test time).
var (
	fixOnce sync.Once
	fixPool *dataset.Dataset
	fixPred *core.Predictor
	fixErr  error
)

func fixture(t testing.TB) (*dataset.Dataset, *core.Predictor) {
	t.Helper()
	fixOnce.Do(func() {
		fixPool, fixErr = dataset.Generate(dataset.GenConfig{
			Seed: 5, DataSeed: 77, Machine: exec.Research4(),
			Schema: catalog.TPCDS(1), Templates: workload.TPCDSTemplates(), Count: 160,
		})
		if fixErr != nil {
			return
		}
		fixPred, fixErr = core.Train(fixPool.Queries[:120], core.DefaultOptions())
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fixPool, fixPred
}

// funcPartitioner routes through a test-supplied function, giving tests
// exact control over which shard owns which query.
type funcPartitioner struct {
	n string
	f func(q *dataset.Query) (int, error)
}

func (p funcPartitioner) Name() string                        { return p.n }
func (p funcPartitioner) Route(q *dataset.Query) (int, error) { return p.f(q) }

func newSliding(t testing.TB, capacity, every int) *core.SlidingPredictor {
	t.Helper()
	sl, err := core.NewSliding(capacity, every, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return sl
}

// TestRouterFanoutOrder is the fan-out ordering property test: a shuffled
// batch spanning every shard — including queries whose routing fails — must
// come back with result i belonging to input i and errors pinned to the
// requests that caused them, while concurrent observations hot-swap shard
// models underneath the batch. Run under -race in CI.
func TestRouterFanoutOrder(t *testing.T) {
	pool, pred := fixture(t)
	const shards = 3
	cfgs := make([]ShardConfig, shards)
	for i := range cfgs {
		cfgs[i] = ShardConfig{Boot: pred, Sliding: newSliding(t, 40, 5)}
	}
	errUnroutable := errors.New("unroutable")
	part := funcPartitioner{n: "by-id", f: func(q *dataset.Query) (int, error) {
		if q.ID%7 == 0 {
			return 0, errUnroutable
		}
		return q.ID % shards, nil
	}}
	r, err := NewRouter(cfgs, part, Config{MaxBatch: 8}, false)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// Concurrent feedback drives retrains and hot swaps on every shard
	// while batches are in flight.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			q := pool.Queries[i%120]
			if q.ID%7 != 0 {
				r.ObserveBatch([]*dataset.Query{q})
			}
			i++
		}
	}()

	rnd := rand.New(rand.NewSource(11))
	for round := 0; round < 20; round++ {
		qs := make([]*dataset.Query, 40)
		for i := range qs {
			qs[i] = pool.Queries[rnd.Intn(len(pool.Queries))]
		}
		outs := r.Predict(context.Background(), qs)
		if len(outs) != len(qs) {
			t.Fatalf("round %d: %d outcomes for %d queries", round, len(outs), len(qs))
		}
		for i, out := range outs {
			if qs[i].ID%7 == 0 {
				if !errors.Is(out.Err, errUnroutable) {
					t.Fatalf("round %d result %d (query %d): err = %v, want routing error pinned here",
						round, i, qs[i].ID, out.Err)
				}
				continue
			}
			want := qs[i].ID % shards
			if out.Shard != want || out.Served != want {
				t.Fatalf("round %d result %d: shard %d/%d, want %d", round, i, out.Shard, out.Served, want)
			}
			if out.Err != nil || out.Res.Err != nil {
				t.Fatalf("round %d result %d: unexpected error %v / %v", round, i, out.Err, out.Res.Err)
			}
			if out.Res.Prediction == nil || out.Gen < 1 {
				t.Fatalf("round %d result %d: incomplete outcome %+v", round, i, out)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestColdStartFallback covers the cold-shard paths: with the warm fallback
// a cold shard's traffic is served by a ready shard (and reported as such);
// without it the request fails alone with ErrNotTrained; and once the owner
// warms up through its own observations, it takes over.
func TestColdStartFallback(t *testing.T) {
	pool, pred := fixture(t)
	toOne := funcPartitioner{n: "to-1", f: func(*dataset.Query) (int, error) { return 1, nil }}
	mk := func(fallback bool) *Router {
		r, err := NewRouter([]ShardConfig{
			{Boot: pred},
			{Sliding: newSliding(t, 20, 5)}, // cold: no boot model
		}, toOne, Config{}, fallback)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	q := pool.Queries[130]

	// Fallback on: shard 1 owns the query, shard 0 answers it.
	r := mk(true)
	outs := r.Predict(context.Background(), []*dataset.Query{q})
	if outs[0].Err != nil || outs[0].Res.Err != nil {
		t.Fatalf("fallback predict failed: %v / %v", outs[0].Err, outs[0].Res.Err)
	}
	if outs[0].Shard != 1 || outs[0].Served != 0 {
		t.Fatalf("owner/served = %d/%d, want 1/0", outs[0].Shard, outs[0].Served)
	}

	// Warm the owner through its own observations: after the first retrain
	// it serves its own traffic.
	if _, err := r.ObserveBatch(pool.Queries[:5]); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for !r.Shard(1).Ready() {
		if time.Now().After(deadline) {
			t.Fatal("shard 1 still cold after enough observations for a retrain")
		}
		time.Sleep(5 * time.Millisecond)
	}
	outs = r.Predict(context.Background(), []*dataset.Query{q})
	if outs[0].Shard != 1 || outs[0].Served != 1 || outs[0].Res.Err != nil {
		t.Fatalf("warmed owner not serving: %+v", outs[0])
	}
	r.Close()

	// Fallback off: the cold shard's request fails alone.
	r = mk(false)
	defer r.Close()
	outs = r.Predict(context.Background(), []*dataset.Query{q})
	if !errors.Is(outs[0].Err, core.ErrNotTrained) {
		t.Fatalf("cold predict err = %v, want ErrNotTrained", outs[0].Err)
	}
}

// TestStockShardServesBootPredictor: a shard booted with a predictor serves
// that predictor's own answers, bit for bit, at generation 1 and as the
// kcca kind — the router adds routing and batching, never a different model.
func TestStockShardServesBootPredictor(t *testing.T) {
	pool, pred := fixture(t)
	zero := funcPartitioner{n: "zero", f: func(*dataset.Query) (int, error) { return 0, nil }}
	r, err := NewRouter([]ShardConfig{{Boot: pred}}, zero, Config{MaxBatch: 8}, false)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	test := pool.Queries[120:150]
	outs := r.Predict(context.Background(), test)
	for i, q := range test {
		want, err := pred.PredictQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		o := outs[i]
		if o.Err != nil || o.Res.Err != nil {
			t.Fatalf("query %d: %v / %v", i, o.Err, o.Res.Err)
		}
		got := o.Res.Prediction
		if got.Metrics != want.Metrics || got.Confidence != want.Confidence || got.Category != want.Category {
			t.Fatalf("query %d: served %+v, the boot predictor answers %+v", i, got, want)
		}
		if o.Gen != 1 || o.Kind != core.ModelKind {
			t.Fatalf("query %d: generation %d kind %q, want 1 and %q", i, o.Gen, o.Kind, core.ModelKind)
		}
	}
}

// TestSlowShardIsolation is the regression test for per-request context
// propagation into the batch path: one shard stalls mid-batch, and (a) a
// concurrent request on the other shard completes within its own deadline,
// (b) the stalled request's abandoned item is skipped — never predicted —
// once the shard resumes.
func TestSlowShardIsolation(t *testing.T) {
	pool, pred := fixture(t)
	byID := funcPartitioner{n: "by-id", f: func(q *dataset.Query) (int, error) { return q.ID % 2, nil }}
	r, err := NewRouter([]ShardConfig{{Boot: pred}, {Boot: pred}}, byID, Config{}, false)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	release := make(chan struct{})
	stalled := make(chan struct{})
	var once sync.Once
	r.Shard(0).batchHook = func() {
		once.Do(func() { close(stalled) })
		<-release
	}

	var q0, q1 *dataset.Query
	for _, q := range pool.Queries[120:] {
		if q.ID%2 == 0 && q0 == nil {
			q0 = q
		}
		if q.ID%2 == 1 && q1 == nil {
			q1 = q
		}
	}

	// Stall shard 0 with a request whose context we cancel while it waits.
	ctx0, cancel0 := context.WithCancel(context.Background())
	slowDone := make(chan Outcome, 1)
	go func() { slowDone <- r.Predict(ctx0, []*dataset.Query{q0})[0] }()
	<-stalled

	// Shard 1 must serve promptly while shard 0 is wedged.
	ctx1, cancel1 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel1()
	start := time.Now()
	outs := r.Predict(ctx1, []*dataset.Query{q1})
	if outs[0].Err != nil || outs[0].Res.Err != nil {
		t.Fatalf("healthy shard failed during sibling stall: %v / %v", outs[0].Err, outs[0].Res.Err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("healthy shard took %v during sibling stall", elapsed)
	}

	// Abandon the stalled request, then let shard 0 resume: the dead item
	// must be answered with the context error and skipped, not predicted.
	cancel0()
	out := <-slowDone
	if !errors.Is(out.Err, context.Canceled) {
		t.Fatalf("stalled request err = %v, want context.Canceled", out.Err)
	}
	before := r.Shard(0).Predictions()
	close(release)
	// A fresh request proves the shard recovered and serves again.
	outs = r.Predict(context.Background(), []*dataset.Query{q0})
	if outs[0].Res.Err != nil || outs[0].Err != nil {
		t.Fatalf("shard 0 did not recover: %v / %v", outs[0].Err, outs[0].Res.Err)
	}
	// Exactly the fresh request was predicted; the abandoned item was not.
	if got := r.Shard(0).Predictions(); got != before+1 {
		t.Fatalf("shard 0 predictions %d, want %d (abandoned item must be skipped)", got, before+1)
	}
}

// TestFingerprintDeterminism is the cross-package determinism check: the
// consistent-hash partitioner must key its ring lookups by exactly the
// fingerprint the prediction cache uses — core.Fingerprint of the query's
// feature vector — and that fingerprint must be stable across calls and
// processes (FNV-1a is a fixed function of the bits).
func TestFingerprintDeterminism(t *testing.T) {
	pool, _ := fixture(t)
	kind := core.DefaultOptions().Features
	p := NewHashPartitioner(4, kind)
	p2 := NewHashPartitioner(4, kind)
	for _, q := range pool.Queries[:40] {
		fp, err := core.QueryFingerprint(q, kind)
		if err != nil {
			t.Fatal(err)
		}
		fp2, err := core.QueryFingerprint(q, kind)
		if err != nil {
			t.Fatal(err)
		}
		if fp != fp2 {
			t.Fatalf("query %d: fingerprint unstable across calls: %x vs %x", q.ID, fp, fp2)
		}
		sh, err := p.Route(q)
		if err != nil {
			t.Fatal(err)
		}
		if want := p.Locate(fp); sh != want {
			t.Fatalf("query %d: Route %d, Locate(core.QueryFingerprint) %d", q.ID, sh, want)
		}
		if sh2, _ := p2.Route(q); sh2 != sh {
			t.Fatalf("query %d: two identically built rings disagree: %d vs %d", q.ID, sh, sh2)
		}
	}
	// The function itself is a fixture: FNV-1a over IEEE-754 bit patterns,
	// pinned so an accidental algorithm change cannot silently remap every
	// prediction-cache key and shard assignment.
	if got := core.Fingerprint([]float64{1, 2, 3}); got != 0xe2d5ae79fc4e9a70 {
		t.Fatalf("core.Fingerprint([1 2 3]) = %#x, want the pinned FNV-1a value", got)
	}
	if core.Fingerprint([]float64{0}) == core.Fingerprint([]float64{}) {
		t.Fatal("fingerprint must distinguish [0] from []")
	}
}

// TestHashRingConsistency checks the consistent part of consistent hashing:
// growing the fleet reassigns only the keys whose arc a new shard claimed —
// about 1/(n+1) of them — instead of reshuffling everything.
func TestHashRingConsistency(t *testing.T) {
	p4 := NewHashPartitioner(4, core.PlanFeatures)
	p5 := NewHashPartitioner(5, core.PlanFeatures)
	const keys = 20000
	moved, toNew := 0, 0
	for i := 0; i < keys; i++ {
		key := core.Fingerprint([]float64{float64(i), float64(i * 31)})
		a, b := p4.Locate(key), p5.Locate(key)
		if a != b {
			moved++
			if b == 4 {
				toNew++
			}
		}
	}
	if moved == 0 {
		t.Fatal("no keys moved when adding a shard — ring is not being consulted")
	}
	if frac := float64(moved) / keys; frac > 0.5 {
		t.Fatalf("%.1f%% of keys moved when growing 4→5 shards; consistent hashing should move ~20%%", frac*100)
	}
	if toNew != moved {
		t.Errorf("%d of %d moved keys went somewhere other than the new shard", moved-toNew, moved)
	}
	// Balance: no shard owns a wildly outsized arc share.
	counts := make([]int, 4)
	for i := 0; i < keys; i++ {
		counts[p4.Locate(core.Fingerprint([]float64{float64(i), float64(i * 31)}))]++
	}
	for s, c := range counts {
		if c < keys/16 || c > keys/2 {
			t.Errorf("shard %d owns %d of %d keys — ring badly unbalanced: %v", s, c, keys, counts)
		}
	}
}

// TestRouterObserveWarmsOwner checks that observations never fall back:
// they go to the owner, whose window and observed counter grow.
func TestRouterObserveWarmsOwner(t *testing.T) {
	pool, pred := fixture(t)
	toOne := funcPartitioner{n: "to-1", f: func(*dataset.Query) (int, error) { return 1, nil }}
	r, err := NewRouter([]ShardConfig{
		{Boot: pred},
		{Sliding: newSliding(t, 20, 5)},
	}, toOne, Config{}, true)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < 7; i++ {
		owners, err := r.ObserveBatch(pool.Queries[i : i+1])
		if err != nil {
			t.Fatalf("observe %d: %v", i, err)
		}
		if owners[0] != 1 {
			t.Fatalf("observation routed to shard %d, want owner 1", owners[0])
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for r.Shard(1).WindowSize() < 7 {
		if time.Now().After(deadline) {
			t.Fatalf("shard 1 window stuck at %d, want 7", r.Shard(1).WindowSize())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if r.Shard(0).WindowSize() != 0 || r.Shard(0).Observed() != 0 {
		t.Errorf("observations leaked to shard 0 (window %d, observed %d)",
			r.Shard(0).WindowSize(), r.Shard(0).Observed())
	}
	if got := r.TotalWindow(); got != 7 {
		t.Errorf("TotalWindow %d, want 7", got)
	}
}

// TestRetrainFailureKeepsServing reads serve.retrain.errors on its failure
// path. A window of observations with identical plan features has a
// centered kernel of exact zeros, so its retrain fails with
// kcca.ErrDegenerate: the counter moves by exactly one, the shard keeps
// serving the generation before it with the same predictions bit for bit,
// and the window keeps the observations.
func TestRetrainFailureKeepsServing(t *testing.T) {
	pool, _ := fixture(t)
	zero := funcPartitioner{n: "zero", f: func(*dataset.Query) (int, error) { return 0, nil }}
	r, err := NewRouter([]ShardConfig{{Sliding: newSliding(t, 5, 5)}}, zero, Config{}, false)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	sh := r.Shard(0)
	observe := func(qs []*dataset.Query, total int64) {
		t.Helper()
		if _, err := r.ObserveBatch(qs); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(30 * time.Second)
		for sh.Observed() < total {
			if time.Now().After(deadline) {
				t.Fatalf("observe loop stuck at %d of %d observations", sh.Observed(), total)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	observe(pool.Queries[:5], 5)
	if !sh.Ready() {
		t.Fatal("no generation after a full window of distinct queries")
	}
	gen := sh.Model().Gen
	probe := pool.Queries[120:140]
	before := r.Predict(context.Background(), probe)
	errsBefore := retrainErrors.Value()

	same := make([]*dataset.Query, 5)
	for i := range same {
		same[i] = pool.Queries[7]
	}
	observe(same, 10)

	if got := retrainErrors.Value() - errsBefore; got != 1 {
		t.Fatalf("serve.retrain.errors moved by %d, want 1", got)
	}
	if g := sh.Model().Gen; g != gen {
		t.Fatalf("serving generation %d after the failed retrain, want %d", g, gen)
	}
	after := r.Predict(context.Background(), probe)
	for i := range probe {
		b, a := before[i], after[i]
		if b.Err != nil || a.Err != nil || b.Res.Err != nil || a.Res.Err != nil {
			t.Fatalf("probe %d: %v / %v, %v / %v", i, b.Err, b.Res.Err, a.Err, a.Res.Err)
		}
		if a.Gen != gen || b.Gen != gen {
			t.Fatalf("probe %d: served by generations %d and %d, want %d", i, b.Gen, a.Gen, gen)
		}
		if !samePrediction(a.Res.Prediction, b.Res.Prediction) {
			t.Fatalf("probe %d: %+v after the failed retrain, %+v before", i, a.Res.Prediction, b.Res.Prediction)
		}
	}
	if n := sh.WindowSize(); n != 5 {
		t.Fatalf("window holds %d queries, want 5", n)
	}
	for i, q := range sh.sliding.Window() {
		if q != pool.Queries[7] {
			t.Fatalf("window slot %d holds %q, want the observed duplicate", i, q.SQL)
		}
	}
}

// TestEqualMetricsWindowServes: a window whose observed metrics are all
// equal but whose plans differ trains and serves. A retrain fits the query
// view alone, so a performance view without spread — on which the two-view
// fit failed with kcca.ErrDegenerate — refuses nothing: the retrain counts
// no error, the shard serves its generation, and every probe is predicted
// at the one observed value.
func TestEqualMetricsWindowServes(t *testing.T) {
	pool, _ := fixture(t)
	zero := funcPartitioner{n: "zero", f: func(*dataset.Query) (int, error) { return 0, nil }}
	r, err := NewRouter([]ShardConfig{{Sliding: newSliding(t, 5, 5)}}, zero, Config{}, false)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	sh := r.Shard(0)
	errsBefore := retrainErrors.Value()

	want := pool.Queries[7]
	window := make([]*dataset.Query, 5)
	for i := range window {
		q := *pool.Queries[i]
		q.Metrics, q.Category = want.Metrics, want.Category
		window[i] = &q
	}
	if _, err := r.ObserveBatch(window); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(30 * time.Second); sh.Observed() < 5; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("observe loop stuck at %d of 5 observations", sh.Observed())
		}
	}

	if got := retrainErrors.Value() - errsBefore; got != 0 {
		t.Fatalf("serve.retrain.errors moved by %d, want 0", got)
	}
	if !sh.Ready() {
		t.Fatal("no generation after a full window of distinct plans with equal metrics")
	}
	gen := sh.Model().Gen
	wantV := want.Metrics.Vector()
	for i, o := range r.Predict(context.Background(), pool.Queries[120:140]) {
		if o.Err != nil || o.Res.Err != nil {
			t.Fatalf("probe %d: %v, %v", i, o.Err, o.Res.Err)
		}
		if o.Gen != gen {
			t.Fatalf("probe %d: served by generation %d, want %d", i, o.Gen, gen)
		}
		for j, v := range o.Res.Prediction.Metrics.Vector() {
			if math.Abs(v-wantV[j]) > 1e-12*math.Abs(wantV[j]) {
				t.Fatalf("probe %d: metric %d predicted %v, every observation %v", i, j, v, wantV[j])
			}
		}
	}
}

// TestRetrainReleasesBeforePublish: the observe loop hands a retrain's
// working set back to the OS once per retrain attempt and before the
// publish — a successful retrain releases while the slot still serves the
// generation before it, a failed one releases and publishes nothing, and an
// observation that does not retrain does not release.
func TestRetrainReleasesBeforePublish(t *testing.T) {
	pool, _ := fixture(t)
	zero := funcPartitioner{n: "zero", f: func(*dataset.Query) (int, error) { return 0, nil }}
	r, err := NewRouter([]ShardConfig{{Sliding: newSliding(t, 5, 5)}}, zero, Config{}, false)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	sh := r.Shard(0)
	var mu sync.Mutex
	var servedAtRelease []int64
	sh.release = func() uint64 {
		mu.Lock()
		defer mu.Unlock()
		servedAtRelease = append(servedAtRelease, sh.generation())
		return 0
	}
	releases := func() []int64 {
		mu.Lock()
		defer mu.Unlock()
		return slices.Clone(servedAtRelease)
	}

	same := make([]*dataset.Query, 5)
	for i := range same {
		same[i] = pool.Queries[7]
	}
	stream := append(slices.Clone(pool.Queries[:10]), same...)
	swaps := modelSwaps.Value()
	for i, q := range stream {
		if _, err := r.ObserveBatch([]*dataset.Query{q}); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(30 * time.Second)
		for sh.Observed() < int64(i+1) {
			if time.Now().After(deadline) {
				t.Fatalf("observe loop stuck at %d of %d observations", sh.Observed(), i+1)
			}
			time.Sleep(time.Millisecond)
		}
		// Observations 5 and 10 retrain into generations 1 and 2; 15
		// retrains a window of one query five times over, which fails.
		attempts := (i + 1) / 5
		want := []int64{0, 1, 2}[:attempts]
		if got := releases(); !slices.Equal(got, want) {
			t.Fatalf("after observation %d: releases saw generations %v, want %v", i+1, got, want)
		}
		if gen, wantGen := sh.generation(), int64(min(attempts, 2)); gen != wantGen {
			t.Fatalf("after observation %d: serving generation %d, want %d", i+1, gen, wantGen)
		}
	}
	if n := modelSwaps.Value() - swaps; n != 2 {
		t.Fatalf("%d swaps published, want 2: the failed retrain published", n)
	}
}

// TestRetrainReturnsMemory: a retrain of a 500-query window frees two
// 500 × 500 kernels and the eigensolver's scratch when Train returns, and
// the release hands at least half of the kernels back to the OS —
// serve.memory.released.bytes says so by the time the generation moves.
func TestRetrainReturnsMemory(t *testing.T) {
	qs := testutil.StockQueries(t, 500)
	r, err := NewRouter([]ShardConfig{{Sliding: newSliding(t, 500, 500)}}, Passthrough{}, Config{}, false)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	released := memReleased.Value()
	if _, err := r.ObserveBatch(qs); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(120 * time.Second)
	for !r.Shard(0).Ready() {
		if time.Now().After(deadline) {
			t.Fatal("no generation after a full window")
		}
		time.Sleep(5 * time.Millisecond)
	}
	const kernel = 500 * 500 * 8
	if n := memReleased.Value() - released; n < kernel {
		t.Fatalf("serve.memory.released.bytes moved by %d, want at least %d (one 500 × 500 kernel)", n, kernel)
	}
}

// samePrediction compares two predictions bit for bit, neighbours included.
func samePrediction(a, b *core.Prediction) bool {
	av, bv := a.Metrics.Vector(), b.Metrics.Vector()
	for i := range av {
		if math.Float64bits(av[i]) != math.Float64bits(bv[i]) {
			return false
		}
	}
	if math.Float64bits(a.Confidence) != math.Float64bits(b.Confidence) || a.Category != b.Category || len(a.Neighbors) != len(b.Neighbors) {
		return false
	}
	for i, n := range a.Neighbors {
		if n.Index != b.Neighbors[i].Index || math.Float64bits(n.Distance) != math.Float64bits(b.Neighbors[i].Distance) {
			return false
		}
	}
	return true
}
