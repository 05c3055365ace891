package shard

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/coalesce/coalescetest"
	"repro/internal/core"
	"repro/internal/dataset"
)

// recordingRouter builds a router of n shards routed by query ID, each
// serving base behind a coalescetest.Model; hook runs on shard 0's
// coalescer.
func recordingRouter(t testing.TB, n int, cfg Config, base Model, hook func(call, size int)) (*Router, []*coalescetest.Model) {
	t.Helper()
	models := make([]*coalescetest.Model, n)
	cfgs := make([]ShardConfig, n)
	for i := range cfgs {
		models[i] = &coalescetest.Model{Predictor: base}
		cfgs[i] = ShardConfig{BootModel: models[i]}
	}
	models[0].Hook = hook
	byID := funcPartitioner{n: "by-id", f: func(q *dataset.Query) (int, error) { return q.ID % n, nil }}
	r, err := NewRouter(cfgs, byID, cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	return r, models
}

// gatedRouter is a recordingRouter over the fixture predictor whose shard 0
// holds its first micro-batch until release is called (cleanup calls it too,
// so Close can drain); arrived is closed once that batch is in flight.
func gatedRouter(t testing.TB, n int, cfg Config) (r *Router, models []*coalescetest.Model, arrived <-chan struct{}, release func()) {
	t.Helper()
	_, pred := fixture(t)
	hook, arrived, release := coalescetest.Gate()
	r, models = recordingRouter(t, n, cfg, pred, hook)
	t.Cleanup(func() {
		release()
		r.Close()
	})
	return r, models, arrived, release
}

// ownedBy returns the pool's queries that the by-ID partitioner routes to
// shard id of n.
func ownedBy(pool *dataset.Dataset, id, n int) []*dataset.Query {
	var qs []*dataset.Query
	for _, q := range pool.Queries {
		if q.ID%n == id {
			qs = append(qs, q)
		}
	}
	return qs
}

func mustServe(t testing.TB, outs []Outcome) {
	t.Helper()
	for i, out := range outs {
		if out.Err != nil || out.Res.Err != nil || out.Res.Prediction == nil {
			t.Fatalf("outcome %d: %v / %v", i, out.Err, out.Res.Err)
		}
	}
}

// TestRouterAdmissionAllOrNothing pins the admission rule per shard: a
// shard's share of a request is admitted whole or refused whole, counted in
// queries; a refusal leaves nothing in the queue and voids no other shard's
// share; an empty queue admits even a share larger than QueueCap.
func TestRouterAdmissionAllOrNothing(t *testing.T) {
	pool, _ := fixture(t)
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			r, models, arrived, release := gatedRouter(t, shards, Config{MaxBatch: 8, QueueCap: 8})
			own := ownedBy(pool, 0, shards)
			depth := coalescetest.Depth()
			ctx := context.Background()

			answers := make(chan []Outcome, 2)
			go func() { answers <- r.Predict(ctx, own[:1]) }()
			<-arrived
			go func() { answers <- r.Predict(ctx, own[1:7]) }()
			coalescetest.WaitDepth(t, depth+6)

			// 6 of 8 pending on shard 0: a 4-query share does not fit and is
			// refused whole; on two shards the other shard's share is served.
			four := append([]*dataset.Query(nil), own[7:11]...)
			if shards == 2 {
				four = append(four, ownedBy(pool, 1, shards)[:2]...)
			}
			outs := r.Predict(ctx, four)
			for i, out := range outs[:4] {
				if !errors.Is(out.Err, ErrOverloaded) {
					t.Fatalf("outcome %d: err %v, want ErrOverloaded", i, out.Err)
				}
			}
			mustServe(t, outs[4:])
			if got := coalescetest.Depth(); got != depth+6 {
				t.Fatalf("serve.queue.depth %d after the refusal, want %d: the refused share left queries behind", got, depth+6)
			}
			release()
			mustServe(t, <-answers)
			mustServe(t, <-answers)
			if got, want := models[0].Sizes(), []int{1, 6}; !reflect.DeepEqual(got, want) {
				t.Fatalf("shard 0 micro-batches %v, want %v: only the admitted queries are predicted", got, want)
			}

			// The retry of the refused share is served, exactly once.
			mustServe(t, r.Predict(ctx, own[7:11]))
			if got, want := models[0].Sizes(), []int{1, 6, 4}; !reflect.DeepEqual(got, want) {
				t.Fatalf("shard 0 micro-batches %v, want %v", got, want)
			}

			// Nothing pending: 16 queries are admitted past a QueueCap of 8
			// and served in MaxBatch-sized runs.
			mustServe(t, r.Predict(ctx, own[:16]))
			if got, want := models[0].Sizes(), []int{1, 6, 4, 8, 8}; !reflect.DeepEqual(got, want) {
				t.Fatalf("shard 0 micro-batches %v, want %v", got, want)
			}
			if got := coalescetest.Depth(); got != depth {
				t.Fatalf("serve.queue.depth %d once idle, want %d", got, depth)
			}
		})
	}
}

// TestRouterBatchComposition: at Window 0 a micro-batch is made of whole
// requests whatever the scheduler does — every batch size is a multiple of
// the request size and at most MaxBatch.
func TestRouterBatchComposition(t *testing.T) {
	pool, _ := fixture(t)
	const clients, perClient, maxBatch = 8, 200, 64
	procsList := []int{1, 2}
	if n := runtime.NumCPU(); n > 2 {
		procsList = append(procsList, n)
	}
	for _, procs := range procsList {
		for _, size := range []int{16, 64} {
			t.Run(fmt.Sprintf("procs=%d/size=%d", procs, size), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				// What is predicted does not matter here, only how it is cut.
				r, models := recordingRouter(t, 1, Config{MaxBatch: maxBatch}, coalescetest.Stub{}, nil)
				defer r.Close()
				qs := pool.Queries[:size]
				var wg sync.WaitGroup
				for c := 0; c < clients; c++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < perClient; i++ {
							for _, out := range r.Predict(context.Background(), qs) {
								if out.Err != nil {
									t.Errorf("predict: %v", out.Err)
									return
								}
							}
						}
					}()
				}
				wg.Wait()
				total := 0
				for _, n := range models[0].Sizes() {
					if n%size != 0 || n > maxBatch {
						t.Fatalf("micro-batch of %d queries from %d-query requests at MaxBatch %d", n, size, maxBatch)
					}
					total += n
				}
				if want := clients * perClient * size; total != want {
					t.Fatalf("%d queries predicted, want %d", total, want)
				}
			})
		}
	}
}

// TestRouterOversizedGroupAcrossSwap: a group larger than MaxBatch is cut
// into MaxBatch-sized runs in input order, each served by one generation,
// and a hot swap between two runs changes nothing but the generation tag.
func TestRouterOversizedGroupAcrossSwap(t *testing.T) {
	pool, pred := fixture(t)
	var r *Router
	r, models := recordingRouter(t, 1, Config{MaxBatch: 64}, pred, func(call, _ int) {
		if call == 0 {
			// On the coalescer's goroutine: the first run has read the slot,
			// the second has not.
			r.Shard(0).Publish(r.Shard(0).Model().Model)
		}
	})
	defer r.Close()

	var qs []*dataset.Query
	for len(qs) < 256 {
		qs = append(qs, pool.Queries[120:]...)
	}
	qs = qs[:256]
	outs := r.Predict(context.Background(), qs)
	mustServe(t, outs)
	if got, want := models[0].Sizes(), []int{64, 64, 64, 64}; !reflect.DeepEqual(got, want) {
		t.Fatalf("micro-batches %v, want %v", got, want)
	}
	reqs := make([]core.Request, len(qs))
	for i, q := range qs {
		reqs[i] = core.Request{Query: q}
	}
	for i, want := range pred.Predict(reqs...) {
		if !reflect.DeepEqual(outs[i].Res, want) {
			t.Fatalf("outcome %d differs from a direct Predict", i)
		}
		wantGen := int64(1)
		if i >= 64 {
			wantGen = 2
		}
		if outs[i].Gen != wantGen {
			t.Fatalf("outcome %d served by generation %d, want %d", i, outs[i].Gen, wantGen)
		}
	}
}

// TestRouterAbandonedGroupSkipped: a group whose context ends while it is
// queued behind an in-flight micro-batch is answered with the context error
// and never predicted.
func TestRouterAbandonedGroupSkipped(t *testing.T) {
	pool, _ := fixture(t)
	r, models, arrived, release := gatedRouter(t, 1, Config{})
	depth := coalescetest.Depth()

	first := make(chan []Outcome, 1)
	go func() { first <- r.Predict(context.Background(), pool.Queries[120:121]) }()
	<-arrived

	ctx, cancel := context.WithCancel(context.Background())
	second := make(chan []Outcome, 1)
	go func() { second <- r.Predict(ctx, pool.Queries[121:124]) }()
	coalescetest.WaitDepth(t, depth+3)
	cancel()
	for i, out := range <-second {
		if !errors.Is(out.Err, context.Canceled) {
			t.Fatalf("abandoned outcome %d: err %v, want context.Canceled", i, out.Err)
		}
	}

	release()
	mustServe(t, <-first)
	r.Close()
	if got := r.Shard(0).Predictions(); got != 1 {
		t.Fatalf("shard 0 predictions %d, want 1: the abandoned group was predicted", got)
	}
	if got, want := models[0].Sizes(), []int{1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("micro-batches %v, want %v", got, want)
	}
}

// TestRouterCloseAnswersBacklog: Close during a backlog drains it — every
// group admitted before the drain gets its answer, and later ones get
// ErrDraining.
func TestRouterCloseAnswersBacklog(t *testing.T) {
	pool, _ := fixture(t)
	r, _, arrived, release := gatedRouter(t, 1, Config{MaxBatch: 4})
	depth := coalescetest.Depth()

	const backlog = 6
	answers := make(chan []Outcome, backlog+1)
	go func() { answers <- r.Predict(context.Background(), pool.Queries[120:121]) }()
	<-arrived
	for i := 0; i < backlog; i++ {
		go func() { answers <- r.Predict(context.Background(), pool.Queries[121:123]) }()
	}
	coalescetest.WaitDepth(t, depth+2*backlog)

	closed := make(chan struct{})
	go func() {
		r.Close()
		close(closed)
	}()
	// The drain has begun before the gate opens.
	for draining := false; !draining; time.Sleep(100 * time.Microsecond) {
		sh := r.Shard(0)
		sh.mu.Lock()
		draining = sh.closed
		sh.mu.Unlock()
	}
	release()
	for i := 0; i < backlog+1; i++ {
		mustServe(t, <-answers)
	}
	<-closed
	if out := r.Predict(context.Background(), pool.Queries[120:121])[0]; !errors.Is(out.Err, ErrDraining) {
		t.Fatalf("predict after Close: err %v, want ErrDraining", out.Err)
	}
}

// parkAt returns an observe hook that holds its shard's observe loop at the
// n-th observation (from 1) until release is closed, and closes arrived once
// the loop is there. Only the observe loop calls it.
func parkAt(n int, arrived, release chan struct{}) func() {
	calls := 0
	return func() {
		if calls++; calls == n {
			close(arrived)
			<-release
		}
	}
}

// TestObserveQueueDepth: serve.observe.queue_depth counts the observations
// accepted and not yet taken by an observe loop, summed over the shards.
// Each of two shards parks its observe loop at a gate before it applies its
// fifth observation, with observations queued behind it;
// the gauge reads their sum, and returns to where it was once the gates
// open and the loops catch up.
func TestObserveQueueDepth(t *testing.T) {
	pool, pred := fixture(t)
	const shards, every, parked = 2, 5, 3
	cfgs := make([]ShardConfig, shards)
	for i := range cfgs {
		cfgs[i] = ShardConfig{Boot: pred, Sliding: newSliding(t, 20, every)}
	}
	byID := funcPartitioner{n: "by-id", f: func(q *dataset.Query) (int, error) { return q.ID % shards, nil }}
	r, err := NewRouter(cfgs, byID, Config{}, false)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	var openGates sync.Once
	open := func() { openGates.Do(func() { close(release) }) }
	defer r.Close()
	defer open()
	// Each loop is idle in its channel receive until the first Observe, whose
	// send orders this write before the loop's read.
	arrived := make([]chan struct{}, shards)
	for i := range arrived {
		arrived[i] = make(chan struct{})
		r.Shard(i).observeHook = parkAt(every, arrived[i], release)
	}

	base := observeDepth.Value()
	for i := 0; i < shards; i++ {
		for _, q := range ownedBy(pool, i, shards)[:every+parked] {
			if _, err := r.ObserveBatch([]*dataset.Query{q}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, in := range arrived {
		<-in
	}
	// Both loops took their first five and are parked before applying the
	// fifth; what each was sent after that is queued.
	if got := observeDepth.Value() - base; got != shards*parked {
		t.Fatalf("serve.observe.queue_depth rose by %d with %d observations parked on each of %d shards", got, parked, shards)
	}
	open()
	deadline := time.Now().Add(30 * time.Second)
	for r.Shard(0).Observed()+r.Shard(1).Observed() != shards*(every+parked) {
		if time.Now().After(deadline) {
			t.Fatalf("observe loops never caught up: %d + %d applied", r.Shard(0).Observed(), r.Shard(1).Observed())
		}
		time.Sleep(time.Millisecond)
	}
	if got := observeDepth.Value() - base; got != 0 {
		t.Fatalf("serve.observe.queue_depth is %d above where it started once the queues drained", got)
	}
}

// TestRouterObserveAllOrNothing pins observe admission across shards: a
// batch is queued whole or not at all. Both observe loops are held at a gate
// with observations parked behind it; a batch whose share for shard
// 0 does not fit beside what is parked there is refused with ErrOverloaded
// even though shard 1 has room for its share, and once the loops drain
// neither shard has applied any of it. A batch that fits on both is
// admitted, and an idle shard takes a share larger than its whole queue.
func TestRouterObserveAllOrNothing(t *testing.T) {
	pool, pred := fixture(t)
	const shards, every, parked, queue = 2, 5, 3, 4
	cfgs := make([]ShardConfig, shards)
	for i := range cfgs {
		cfgs[i] = ShardConfig{Boot: pred, Sliding: newSliding(t, 40, every)}
	}
	byID := funcPartitioner{n: "by-id", f: func(q *dataset.Query) (int, error) { return q.ID % shards, nil }}
	r, err := NewRouter(cfgs, byID, Config{QueueCap: queue}, false)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	var openGates sync.Once
	open := func() { openGates.Do(func() { close(release) }) }
	defer r.Close()
	defer open()
	arrived := make([]chan struct{}, shards)
	for i := range arrived {
		arrived[i] = make(chan struct{})
		r.Shard(i).observeHook = parkAt(every, arrived[i], release)
	}

	own := [shards][]*dataset.Query{ownedBy(pool, 0, shards), ownedBy(pool, 1, shards)}
	// Each shard's first batch meets an empty queue and is admitted whole,
	// larger than the queue as it is; the loop takes all of it and parks
	// before applying the fifth.
	for i := 0; i < shards; i++ {
		if _, err := r.ObserveBatch(own[i][:every]); err != nil {
			t.Fatalf("shard %d: first batch: %v", i, err)
		}
		<-arrived[i]
	}
	if _, err := r.ObserveBatch(own[0][every : every+parked]); err != nil {
		t.Fatalf("parking %d on shard 0: %v", parked, err)
	}
	mixed := []*dataset.Query{own[1][every], own[0][every+parked], own[0][every+parked+1]}
	if owners, err := r.ObserveBatch(mixed); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("batch overflowing shard 0: owners %v, err %v; want ErrOverloaded", owners, err)
	}
	fits := []*dataset.Query{own[1][every], own[0][every+parked]}
	if owners, err := r.ObserveBatch(fits); err != nil || owners[0] != 1 || owners[1] != 0 {
		t.Fatalf("batch that fits: owners %v, err %v", owners, err)
	}
	open()
	want := [shards]int64{every + parked + 1, every + 1}
	deadline := time.Now().Add(30 * time.Second)
	for r.Shard(0).Observed() != want[0] || r.Shard(1).Observed() != want[1] {
		if time.Now().After(deadline) {
			t.Fatalf("applied %d and %d observations, want %v", r.Shard(0).Observed(), r.Shard(1).Observed(), want)
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // a wrongly queued share would land now
	if got := [shards]int64{r.Shard(0).Observed(), r.Shard(1).Observed()}; got != want {
		t.Fatalf("applied %v observations, want %v: the refused batch was partly queued", got, want)
	}
}

// TestRouterObserveBatchesConcurrent: batches spanning both shards, sent
// from several goroutines at once into small queues, are each applied whole
// or not at all — once every loop drains, the shards have applied exactly
// the observations of the batches that were accepted.
func TestRouterObserveBatchesConcurrent(t *testing.T) {
	pool, pred := fixture(t)
	const shards, senders, batches = 2, 8, 10
	cfgs := make([]ShardConfig, shards)
	for i := range cfgs {
		cfgs[i] = ShardConfig{Boot: pred, Sliding: newSliding(t, 40, 20)}
	}
	byID := funcPartitioner{n: "by-id", f: func(q *dataset.Query) (int, error) { return q.ID % shards, nil }}
	r, err := NewRouter(cfgs, byID, Config{QueueCap: 4}, false)
	if err != nil {
		t.Fatal(err)
	}
	var accepted atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				at := (g*batches + b) * 3 % (len(pool.Queries) - 3)
				switch _, err := r.ObserveBatch(pool.Queries[at : at+3]); {
				case err == nil:
					accepted.Add(3)
				case !errors.Is(err, ErrOverloaded):
					t.Errorf("sender %d batch %d: %v", g, b, err)
				}
			}
		}(g)
	}
	wg.Wait()
	r.Close()
	if got := r.Shard(0).Observed() + r.Shard(1).Observed(); got != accepted.Load() {
		t.Fatalf("shards applied %d observations, %d were accepted in whole batches", got, accepted.Load())
	}
}
