package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/coalesce/coalescetest"
	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/testutil"
	"repro/pkg/qpredict"
)

// What the queue does with requests — whole-or-nothing admission per shard,
// batches cut from whole requests, an oversized request cut in order across
// a hot swap — is internal/shard's to test (TestRouterAdmissionAllOrNothing,
// TestRouterBatchComposition, TestRouterOversizedGroupAcrossSwap): there is
// one queue now, and it is not in this package. What is tested here is what
// the handler adds: which status and body each outcome becomes.

var corePredictCount = obs.GetCounter("core.predict.count")

// recordingServer boots a server whose one shard serves cfg's predictor
// wrapped in a coalescetest.Model, so a test sees every micro-batch's size
// and can hook the coalescer's goroutine.
func recordingServer(t testing.TB, cfg Config, hook func(call, size int)) (*Server, *coalescetest.Model) {
	t.Helper()
	m := &coalescetest.Model{Predictor: cfg.Predictor, Hook: hook}
	router, err := shard.NewRouter([]shard.ShardConfig{{BootModel: m}}, shard.Passthrough{},
		shard.Config{Window: cfg.Window, MaxBatch: cfg.MaxBatch, QueueCap: cfg.QueueCap}, false)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Predictor, cfg.Router = nil, router
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
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
