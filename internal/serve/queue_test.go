package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/coalesce/coalescetest"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/testutil"
	"repro/pkg/qpredict"
)

var corePredictCount = obs.GetCounter("core.predict.count")

// recordingServer boots a server around the fixture predictor wrapped in a
// coalescetest.Model, so a test sees every micro-batch's size and can hook
// the coalescer's goroutine.
func recordingServer(t testing.TB, cfg Config, hook func(call, size int)) (*Server, *coalescetest.Model) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := &coalescetest.Model{Model: s.slot.get().model, Hook: hook}
	s.slot.restore(m, 1)
	return s, m
}

// gatedServer is a recordingServer whose first micro-batch is held in the
// model until release is called (cleanup calls it too, so Close can drain);
// arrived is closed once that batch is in flight.
func gatedServer(t testing.TB, cfg Config) (s *Server, m *coalescetest.Model, arrived <-chan struct{}, release func()) {
	t.Helper()
	hook, arrived, release := coalescetest.Gate()
	s, m = recordingServer(t, cfg, hook)
	t.Cleanup(func() {
		release()
		s.Close()
	})
	return s, m, arrived, release
}

func predictBody(qs []*dataset.Query) string {
	req := api.PredictRequest{}
	for _, q := range qs {
		req.Queries = append(req.Queries, api.QueryInput{SQL: q.SQL})
	}
	raw, err := json.Marshal(req)
	if err != nil {
		panic(err)
	}
	return string(raw)
}

// serveBody runs one /v1/predict through the handler in process.
func serveBody(s *Server, ctx context.Context, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(body)).WithContext(ctx)
	s.Handler().ServeHTTP(rec, req)
	return rec
}

// TestAdmissionAllOrNothing pins the admission rule: a request is admitted
// whole or refused whole, counted in queries; a refusal leaves nothing in
// the queue; an empty queue admits even a request larger than QueueCap.
func TestAdmissionAllOrNothing(t *testing.T) {
	pool, _ := fixture(t)
	cfg := baseConfig(t)
	cfg.MaxBatch, cfg.QueueCap = 8, 8
	s, m, arrived, release := gatedServer(t, cfg)
	depth := coalescetest.Depth()

	answers := make(chan *httptest.ResponseRecorder, 2)
	go func() { answers <- serveBody(s, context.Background(), predictBody(pool.Queries[120:121])) }()
	<-arrived
	go func() { answers <- serveBody(s, context.Background(), predictBody(pool.Queries[121:127])) }()
	coalescetest.WaitDepth(t, depth+6)

	// 6 of 8 pending: a 4-query request does not fit and is refused whole.
	four := predictBody(pool.Queries[127:131])
	rec := serveBody(s, context.Background(), four)
	if rec.Code != http.StatusTooManyRequests || rec.Header().Get("Retry-After") != "1" {
		t.Fatalf("status %d Retry-After %q, want 429 and 1: %s", rec.Code, rec.Header().Get("Retry-After"), rec.Body)
	}
	if got := coalescetest.Depth(); got != depth+6 {
		t.Fatalf("serve.queue.depth %d after the refusal, want %d: the refused request left queries behind", got, depth+6)
	}
	release()
	for i := 0; i < 2; i++ {
		if rec := <-answers; rec.Code != http.StatusOK {
			t.Fatalf("admitted request answered %d: %s", rec.Code, rec.Body)
		}
	}
	if got, want := m.Sizes(), []int{1, 6}; !reflect.DeepEqual(got, want) {
		t.Fatalf("micro-batches %v, want %v: only the admitted queries are predicted", got, want)
	}

	// The retry of the refused request is served, exactly once.
	if rec := serveBody(s, context.Background(), four); rec.Code != http.StatusOK {
		t.Fatalf("retry answered %d: %s", rec.Code, rec.Body)
	}
	if got, want := m.Sizes(), []int{1, 6, 4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("micro-batches %v, want %v", got, want)
	}

	// Nothing pending: 16 queries are admitted past a QueueCap of 8 and
	// served in MaxBatch-sized runs.
	rec = serveBody(s, context.Background(), predictBody(pool.Queries[120:136]))
	if rec.Code != http.StatusOK {
		t.Fatalf("oversized request on an idle queue answered %d: %s", rec.Code, rec.Body)
	}
	if pr := decodePredict(t, rec.Body.Bytes()); len(pr.Results) != 16 {
		t.Fatalf("%d results, want 16", len(pr.Results))
	}
	if got, want := m.Sizes(), []int{1, 6, 4, 8, 8}; !reflect.DeepEqual(got, want) {
		t.Fatalf("micro-batches %v, want %v", got, want)
	}
	if got := coalescetest.Depth(); got != depth {
		t.Fatalf("serve.queue.depth %d once idle, want %d", got, depth)
	}
}

// TestBatchComposition: at Window 0 a micro-batch is made of whole requests
// whatever the scheduler does — every batch size is a multiple of the
// request size and at most MaxBatch.
func TestBatchComposition(t *testing.T) {
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
				cfg := baseConfig(t)
				cfg.MaxBatch = maxBatch
				s, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				// What is predicted does not matter here, only how it is cut.
				m := &coalescetest.Model{Model: coalescetest.Stub{}}
				s.slot.restore(m, 1)

				var qs []*dataset.Query
				for len(qs) < size {
					qs = append(qs, pool.Queries[120:160]...)
				}
				body := predictBody(qs[:size])
				var wg sync.WaitGroup
				for c := 0; c < clients; c++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < perClient; i++ {
							if rec := serveBody(s, context.Background(), body); rec.Code != http.StatusOK {
								t.Errorf("status %d: %s", rec.Code, rec.Body)
								return
							}
						}
					}()
				}
				wg.Wait()
				total := 0
				for _, n := range m.Sizes() {
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

// TestOversizedRequestAcrossSwap: a request larger than MaxBatch is cut
// into MaxBatch-sized runs in input order, each served by one generation,
// and a hot swap between two runs changes nothing but the generation tag.
func TestOversizedRequestAcrossSwap(t *testing.T) {
	pool, pred := fixture(t)
	cfg := baseConfig(t)
	cfg.MaxBatch = 64
	var s *Server
	s, m := recordingServer(t, cfg, func(call, _ int) {
		if call == 0 {
			// On the coalescer's goroutine: the first run has read the slot,
			// the second has not.
			s.slot.swap(s.slot.get().model)
		}
	})
	defer s.Close()

	var qs []*dataset.Query
	for len(qs) < 256 {
		qs = append(qs, pool.Queries[120:160]...)
	}
	qs = qs[:256]
	rec := serveBody(s, context.Background(), predictBody(qs))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if got, want := m.Sizes(), []int{64, 64, 64, 64}; !reflect.DeepEqual(got, want) {
		t.Fatalf("micro-batches %v, want %v", got, want)
	}
	reqs := make([]core.Request, len(qs))
	for i, q := range qs {
		reqs[i] = core.Request{Query: planLocal(t, q.SQL)}
	}
	direct := pred.Predict(reqs...)
	pr := decodePredict(t, rec.Body.Bytes())
	for i, r := range pr.Results {
		if r.SQL != qs[i].SQL {
			t.Fatalf("result %d out of input order", i)
		}
		if want := api.MetricsFrom(direct[i].Prediction.Metrics); !reflect.DeepEqual(*r.Metrics, want) {
			t.Fatalf("result %d: metrics %+v, direct predict %+v", i, *r.Metrics, want)
		}
		wantGen := int64(1)
		if i >= 64 {
			wantGen = 2
		}
		if r.Generation != wantGen {
			t.Fatalf("result %d served by generation %d, want %d", i, r.Generation, wantGen)
		}
	}
}

// TestAbandonedGroupSkipped: a request whose context ends while it is
// queued behind an in-flight micro-batch is answered with the context error
// and never predicted.
func TestAbandonedGroupSkipped(t *testing.T) {
	pool, _ := fixture(t)
	s, m, arrived, release := gatedServer(t, baseConfig(t))
	depth := coalescetest.Depth()

	first := make(chan *httptest.ResponseRecorder, 1)
	go func() { first <- serveBody(s, context.Background(), predictBody(pool.Queries[120:121])) }()
	<-arrived

	ctx, cancel := context.WithCancel(context.Background())
	second := make(chan *httptest.ResponseRecorder, 1)
	go func() { second <- serveBody(s, ctx, predictBody(pool.Queries[121:124])) }()
	coalescetest.WaitDepth(t, depth+3)
	timeouts := requestTimeouts.Value()
	cancel()
	rec := <-second
	var er api.ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusGatewayTimeout || er.Error.Message != "client went away: context canceled" {
		t.Fatalf("abandoned request answered %d %q", rec.Code, er.Error.Message)
	}
	if got := requestTimeouts.Value(); got != timeouts+1 {
		t.Fatalf("serve.request.timeouts advanced by %d, want 1", got-timeouts)
	}

	predicted := corePredictCount.Value()
	release()
	if rec := <-first; rec.Code != http.StatusOK {
		t.Fatalf("in-flight request answered %d: %s", rec.Code, rec.Body)
	}
	s.Close()
	if got := corePredictCount.Value(); got != predicted+1 {
		t.Fatalf("core.predict.count advanced by %d, want 1: the abandoned group was predicted", got-predicted)
	}
	if got, want := m.Sizes(), []int{1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("micro-batches %v, want %v", got, want)
	}
}

// TestCloseAnswersBacklog: Close during a backlog drains it — every request
// admitted before the drain gets its answer, and later ones get 503.
func TestCloseAnswersBacklog(t *testing.T) {
	pool, _ := fixture(t)
	cfg := baseConfig(t)
	cfg.MaxBatch = 4
	s, _, arrived, release := gatedServer(t, cfg)
	depth := coalescetest.Depth()

	const backlog = 6
	answers := make(chan *httptest.ResponseRecorder, backlog+1)
	go func() { answers <- serveBody(s, context.Background(), predictBody(pool.Queries[120:121])) }()
	<-arrived
	for i := 0; i < backlog; i++ {
		go func() { answers <- serveBody(s, context.Background(), predictBody(pool.Queries[121:123])) }()
	}
	coalescetest.WaitDepth(t, depth+2*backlog)

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	// Draining is visible on /readyz before the gate opens.
	for {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
		if rec.Code == http.StatusServiceUnavailable {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	release()
	for i := 0; i < backlog+1; i++ {
		if rec := <-answers; rec.Code != http.StatusOK {
			t.Fatalf("admitted request answered %d during the drain: %s", rec.Code, rec.Body)
		}
	}
	<-closed
	if rec := serveBody(s, context.Background(), predictBody(pool.Queries[120:121])); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("request after Close answered %d, want 503", rec.Code)
	}
}

// TestIdleDispatch: under the stock options an idle server answers a
// single predict in service time — nothing on the path sleeps.
func TestIdleDispatch(t *testing.T) {
	pool, _ := fixture(t)
	stock := qpredict.Default().Serve
	cfg := baseConfig(t)
	cfg.Window, cfg.MaxBatch, cfg.QueueCap = stock.Window.Std(), stock.MaxBatch, stock.QueueCap
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	body := predictBody(pool.Queries[134:135])
	took := make([]time.Duration, 200)
	for i := range took {
		start := time.Now()
		if rec := serveBody(s, context.Background(), body); rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		took[i] = time.Since(start)
	}
	sort.Slice(took, func(i, j int) bool { return took[i] < took[j] })
	median := took[len(took)/2]
	t.Logf("median handler time %v", median)
	if testutil.RaceEnabled {
		t.Skip("race detector enabled; skipping the latency bound")
	}
	if median >= time.Millisecond {
		t.Fatalf("median handler time %v on an idle stock server, want under 1ms", median)
	}
}

// TestWindowOptionHolds: a config file that sets serve.window restores the
// held batch — a request arriving half a millisecond after the first shares
// its micro-batch — while the stock options dispatch the first on arrival.
func TestWindowOptionHolds(t *testing.T) {
	pool, _ := fixture(t)
	path := filepath.Join(t.TempDir(), "config.json")
	if err := os.WriteFile(path, []byte(`{"serve": {"window": "100ms"}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	held, err := qpredict.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	body := predictBody(pool.Queries[120:121])
	run := func(t *testing.T, opts qpredict.Options, firstIsIn func(dispatched <-chan struct{})) []int {
		cfg := baseConfig(t)
		cfg.Window = opts.Serve.Window.Std()
		dispatched := make(chan struct{})
		s, m := recordingServer(t, cfg, func(call, _ int) {
			if call == 0 {
				close(dispatched)
			}
		})
		defer s.Close()
		first := make(chan *httptest.ResponseRecorder, 1)
		go func() { first <- serveBody(s, context.Background(), body) }()
		firstIsIn(dispatched)
		time.Sleep(500 * time.Microsecond)
		for _, rec := range []*httptest.ResponseRecorder{serveBody(s, context.Background(), body), <-first} {
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d: %s", rec.Code, rec.Body)
			}
		}
		return m.Sizes()
	}
	t.Run("window=100ms", func(t *testing.T) {
		// The first request is admitted and stays pending: the idle engine
		// is holding it.
		depth := coalescetest.Depth()
		got := run(t, held, func(<-chan struct{}) { coalescetest.WaitDepth(t, depth+1) })
		if want := []int{2}; !reflect.DeepEqual(got, want) {
			t.Fatalf("micro-batches %v, want %v", got, want)
		}
	})
	t.Run("stock", func(t *testing.T) {
		// The first request reaches the model alone, before the second exists.
		got := run(t, qpredict.Default(), func(dispatched <-chan struct{}) { <-dispatched })
		if want := []int{1, 1}; !reflect.DeepEqual(got, want) {
			t.Fatalf("micro-batches %v, want %v", got, want)
		}
	})
}
