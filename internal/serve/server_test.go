package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/catalog"
	"repro/internal/coalesce/coalescetest"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/sqlparse"
	"repro/internal/workload"
)

// Shared fixture: one generated pool and one trained model (generation
// dominates test time). The data seed is fixed so the server's planner and
// the tests' local planner produce identical plans for the same SQL.
const fixDataSeed = 77

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
			Seed: 5, DataSeed: fixDataSeed, Machine: exec.Research4(),
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

// baseConfig returns a ready-to-serve config around the fixture model.
func baseConfig(t testing.TB) Config {
	_, pred := fixture(t)
	return Config{
		Predictor: pred,
		Schema:    catalog.TPCDS(1),
		Machine:   exec.Research4(),
		DataSeed:  fixDataSeed,
		Timeout:   10 * time.Second,
	}
}

// planLocal plans SQL exactly the way the server does.
func planLocal(t testing.TB, sql string) *dataset.Query {
	t.Helper()
	ast, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatalf("parsing %q: %v", sql, err)
	}
	plan, err := optimizer.BuildPlan(ast, catalog.TPCDS(1), fixDataSeed, optimizer.DefaultConfig(exec.Research4().Processors))
	if err != nil {
		t.Fatalf("planning %q: %v", sql, err)
	}
	return &dataset.Query{SQL: sql, AST: ast, Plan: plan}
}

func postJSON(t testing.TB, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func decodePredict(t testing.TB, raw []byte) api.PredictResponse {
	t.Helper()
	var pr api.PredictResponse
	if err := json.Unmarshal(raw, &pr); err != nil {
		t.Fatalf("decoding %s: %v", raw, err)
	}
	return pr
}

func TestPredictSingle(t *testing.T) {
	pool, pred := fixture(t)
	s, err := New(baseConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	sql := pool.Queries[130].SQL
	resp, raw := postJSON(t, ts.URL+"/v1/predict", api.PredictRequest{SQL: sql})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	pr := decodePredict(t, raw)
	if pr.Version != api.Version {
		t.Errorf("version %q, want %q", pr.Version, api.Version)
	}
	if pr.Model == nil || pr.Model.Generation != 1 || pr.Model.TrainedOn != pred.N() {
		t.Errorf("model info %+v", pr.Model)
	}
	if len(pr.Results) != 1 {
		t.Fatalf("%d results, want 1", len(pr.Results))
	}
	r := pr.Results[0]
	if r.Error != nil {
		t.Fatalf("unexpected error: %+v", r.Error)
	}
	if r.Metrics == nil || r.Category == "" || !(r.Confidence > 0 && r.Confidence <= 1) {
		t.Fatalf("incomplete result: %s", raw)
	}
	if r.Generation != 1 {
		t.Errorf("generation %d, want 1", r.Generation)
	}

	// The served numbers are bit-identical to a direct in-process predict,
	// and the optimizer baseline rides along.
	q := planLocal(t, sql)
	want, err := pred.PredictQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics.Exec() != want.Metrics {
		t.Errorf("served metrics %+v, direct %+v", r.Metrics.Exec(), want.Metrics)
	}
	if r.Confidence != want.Confidence || r.Category != want.Category.String() {
		t.Errorf("served (conf %v, cat %q), direct (conf %v, cat %q)",
			r.Confidence, r.Category, want.Confidence, want.Category)
	}
	if r.OptimizerCost != q.Plan.Cost {
		t.Errorf("optimizer cost %v, plan cost %v", r.OptimizerCost, q.Plan.Cost)
	}

	// The six metric names appear verbatim on the wire.
	for _, name := range exec.MetricNames {
		if !strings.Contains(string(raw), fmt.Sprintf("%q", name)) {
			t.Errorf("response is missing metric %q: %s", name, raw)
		}
	}
}

func TestPredictBatchMixedResults(t *testing.T) {
	pool, _ := fixture(t)
	s, err := New(baseConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := api.PredictRequest{Queries: []api.QueryInput{
		{SQL: pool.Queries[121].SQL},
		{SQL: "SELEC nonsense FROM ("},
		{SQL: "SELECT COUNT(*) FROM no_such_table"},
		{SQL: pool.Queries[122].SQL},
	}}
	resp, raw := postJSON(t, ts.URL+"/v1/predict", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	pr := decodePredict(t, raw)
	if len(pr.Results) != 4 {
		t.Fatalf("%d results, want 4", len(pr.Results))
	}
	if pr.Results[0].Error != nil || pr.Results[0].Metrics == nil {
		t.Errorf("result 0 should have predicted: %+v", pr.Results[0])
	}
	if pr.Results[1].Error == nil || pr.Results[1].Error.Code != api.CodeParse {
		t.Errorf("result 1 error = %+v, want %s", pr.Results[1].Error, api.CodeParse)
	}
	if pr.Results[2].Error == nil || pr.Results[2].Error.Code != api.CodePlan {
		t.Errorf("result 2 error = %+v, want %s", pr.Results[2].Error, api.CodePlan)
	}
	if pr.Results[3].Error != nil || pr.Results[3].Metrics == nil {
		t.Errorf("result 3 should have predicted: %+v", pr.Results[3])
	}
}

func TestPredictRequestValidation(t *testing.T) {
	cfg := baseConfig(t)
	cfg.MaxQueries = 2
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	check := func(status int, code string, raw []byte) {
		t.Helper()
		var er api.ErrorResponse
		if err := json.Unmarshal(raw, &er); err != nil {
			t.Fatalf("decoding %s: %v", raw, err)
		}
		if er.Error.Code != code {
			t.Errorf("code %q, want %q (%s)", er.Error.Code, code, raw)
		}
		if er.Version != api.Version {
			t.Errorf("error body missing version: %s", raw)
		}
	}

	// Not JSON.
	resp, err := http.Post(ts.URL+"/v1/predict", "text/plain", strings.NewReader("SELECT"))
	if err != nil {
		t.Fatal(err)
	}
	raw := readAll(t, resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, raw)
	}
	check(resp.StatusCode, api.CodeBadRequest, raw)

	// No queries.
	resp2, raw2 := postJSON(t, ts.URL+"/v1/predict", api.PredictRequest{})
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp2.StatusCode)
	}
	check(resp2.StatusCode, api.CodeBadRequest, raw2)

	// Too many queries.
	resp3, raw3 := postJSON(t, ts.URL+"/v1/predict", api.PredictRequest{Queries: []api.QueryInput{
		{SQL: "a"}, {SQL: "b"}, {SQL: "c"},
	}})
	if resp3.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp3.StatusCode)
	}
	check(resp3.StatusCode, api.CodeBadRequest, raw3)

	// Wrong method.
	resp4, err := http.Get(ts.URL + "/v1/predict")
	if err != nil {
		t.Fatal(err)
	}
	raw4 := readAll(t, resp4)
	if resp4.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status %d, want 405: %s", resp4.StatusCode, raw4)
	}
	check(resp4.StatusCode, api.CodeMethod, raw4)
}

func readAll(t testing.TB, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return buf.Bytes()
}

// TestOverload drives the bounded-queue 429 path deterministically: one
// request is held in flight at a gated model and one is pending behind it,
// so the one-slot queue is full and the next submit must shed.
func TestOverload(t *testing.T) {
	pool, _ := fixture(t)
	cfg := baseConfig(t)
	cfg.MaxBatch, cfg.QueueCap = 8, 1
	s, _, arrived, _ := gatedServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	depth := coalescetest.Depth()
	body := predictBody(pool.Queries[121:122])
	go serveBody(s, context.Background(), body)
	<-arrived
	go serveBody(s, context.Background(), body)
	coalescetest.WaitDepth(t, depth+1)

	rejected := obs.GetCounter("serve.rejected.overload")
	before := rejected.Value()
	resp, raw := postJSON(t, ts.URL+"/v1/predict", api.PredictRequest{SQL: pool.Queries[121].SQL})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, raw)
	}
	if n := rejected.Value() - before; n != 1 {
		t.Errorf("serve.rejected.overload moved by %d on one 429, want 1", n)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After %q on a 429, want 1", got)
	}
	var er api.ErrorResponse
	if err := json.Unmarshal(raw, &er); err != nil {
		t.Fatal(err)
	}
	if er.Error.Code != api.CodeOverloaded {
		t.Errorf("code %q, want %q", er.Error.Code, api.CodeOverloaded)
	}
}

// TestPredictTimeout drives the per-request deadline deterministically:
// the model holds the request's micro-batch at a gate, so the handler's
// wait must expire.
func TestPredictTimeout(t *testing.T) {
	pool, _ := fixture(t)
	cfg := baseConfig(t)
	cfg.Timeout = 50 * time.Millisecond
	s, _, _, _ := gatedServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, raw := postJSON(t, ts.URL+"/v1/predict", api.PredictRequest{SQL: pool.Queries[121].SQL})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, raw)
	}
	var er api.ErrorResponse
	if err := json.Unmarshal(raw, &er); err != nil {
		t.Fatal(err)
	}
	if er.Error.Code != api.CodeTimeout {
		t.Errorf("code %q, want %q", er.Error.Code, api.CodeTimeout)
	}
	if want := "prediction did not complete within 50ms"; er.Error.Message != want {
		t.Errorf("message %q, want %q", er.Error.Message, want)
	}
}

// TestColdStartAndReadiness boots the daemon with no model — only a
// sliding window — and watches it become ready after enough feedback.
func TestColdStartAndReadiness(t *testing.T) {
	pool, _ := fixture(t)
	sliding, err := core.NewSliding(30, 10, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(t)
	cfg.Predictor = nil
	cfg.Sliding = sliding
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Cold: live but not ready, predicts refused with 503.
	if resp, _ := http.Get(ts.URL + "/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz %d, want 200", resp.StatusCode)
	}
	if resp, _ := http.Get(ts.URL + "/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("cold readyz %d, want 503", resp.StatusCode)
	}
	resp, raw := postJSON(t, ts.URL+"/v1/predict", api.PredictRequest{SQL: pool.Queries[121].SQL})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("cold predict %d, want 503: %s", resp.StatusCode, raw)
	}

	// Feed ten executed queries; the background retrain must swap in a
	// first model and flip readiness.
	var obs []api.Observation
	for _, q := range pool.Queries[:10] {
		obs = append(obs, api.Observation{SQL: q.SQL, Metrics: api.MetricsFrom(q.Metrics)})
	}
	resp2, raw2 := postJSON(t, ts.URL+"/v1/observe", api.ObserveRequest{Observations: obs})
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("observe %d, want 202: %s", resp2.StatusCode, raw2)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if resp, _ := http.Get(ts.URL + "/readyz"); resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never became ready after observations")
		}
		time.Sleep(10 * time.Millisecond)
	}
	resp3, raw3 := postJSON(t, ts.URL+"/v1/predict", api.PredictRequest{SQL: pool.Queries[121].SQL})
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("warm predict %d: %s", resp3.StatusCode, raw3)
	}
	pr := decodePredict(t, raw3)
	if pr.Model == nil || pr.Model.TrainedOn != 10 {
		t.Errorf("model info %+v, want trained_on 10", pr.Model)
	}
}

// gateWriter blocks its first Write until release is closed, after closing
// arrived. Handed to SlidingPredictor.SaveState, which holds the window's
// lock while it writes, it parks the observe loop at its next observation.
type gateWriter struct {
	once             sync.Once
	arrived, release chan struct{}
}

func (g *gateWriter) Write(p []byte) (int, error) {
	g.once.Do(func() {
		close(g.arrived)
		<-g.release
	})
	return len(p), nil
}

// TestObserveBatchAllOrNothing: an observation that fails validation —
// here a negative metric at index 3 of 5 — refuses the whole batch with a
// 400 naming it, and a batch the observe queue has no room for is refused
// whole with a 429; nothing from either reaches the window: after the
// observe queue drains, window_size, generation and core.sliding.observed
// count only the accepted batches.
func TestObserveBatchAllOrNothing(t *testing.T) {
	pool, _ := fixture(t)
	sliding, err := core.NewSliding(30, 10, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	const queue = 8
	cfg := baseConfig(t)
	cfg.Predictor = nil
	cfg.Sliding = sliding
	cfg.QueueCap = queue
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	observations := func(qs []*dataset.Query) []api.Observation {
		var obs []api.Observation
		for _, q := range qs {
			obs = append(obs, api.Observation{SQL: q.SQL, Metrics: api.MetricsFrom(q.Metrics)})
		}
		return obs
	}
	model := func() api.ModelInfo {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/model")
		if err != nil {
			t.Fatal(err)
		}
		var body struct{ Model api.ModelInfo }
		if resp.StatusCode == http.StatusOK {
			if err := json.Unmarshal(readAll(t, resp), &body); err != nil {
				t.Fatal(err)
			}
		} else {
			resp.Body.Close()
		}
		return body.Model
	}

	if resp, raw := postJSON(t, ts.URL+"/v1/observe", api.ObserveRequest{Observations: observations(pool.Queries[:10])}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("observe %d, want 202: %s", resp.StatusCode, raw)
	}
	deadline := time.Now().Add(30 * time.Second)
	for m := model(); m.Generation != 1 || m.WindowSize != 10; m = model() {
		if time.Now().After(deadline) {
			t.Fatalf("model %+v never reached generation 1 over 10 observations", m)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Were observations 0..2 applied, the window would hold 13; were all
	// but the bad one, 14.
	bad := observations(pool.Queries[10:15])
	bad[3].Metrics.DiskIOs = -1
	resp, raw := postJSON(t, ts.URL+"/v1/observe", api.ObserveRequest{Observations: bad})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad batch %d, want 400: %s", resp.StatusCode, raw)
	}
	var er api.ErrorResponse
	if err := json.Unmarshal(raw, &er); err != nil {
		t.Fatal(err)
	}
	if want := "observation 3: metric disk_ios is -1, want finite and >= 0"; er.Error.Code != api.CodeBadRequest || er.Error.Message != want {
		t.Fatalf("error %+v, want %s %q", er.Error, api.CodeBadRequest, want)
	}

	// Park the observe loop: it takes the first of five observations and
	// waits on the window's lock, leaving four of the queue's eight slots
	// taken. Five more do not fit and are refused whole; four do.
	observed := obs.GetCounter("core.sliding.observed")
	before := observed.Value()
	gate := &gateWriter{arrived: make(chan struct{}), release: make(chan struct{})}
	saved := make(chan error, 1)
	go func() { saved <- sliding.SaveState(gate) }()
	<-gate.arrived
	depth := obs.GetGauge("serve.observe.queue_depth")
	base := depth.Value()
	if resp, raw := postJSON(t, ts.URL+"/v1/observe", api.ObserveRequest{Observations: observations(pool.Queries[15:20])}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("observe into an idle queue: %d, want 202: %s", resp.StatusCode, raw)
	}
	for deadline := time.Now().Add(30 * time.Second); depth.Value() != base+4; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth %d, want %d with the loop parked on the first of five", depth.Value(), base+4)
		}
	}
	resp, raw = postJSON(t, ts.URL+"/v1/observe", api.ObserveRequest{Observations: observations(pool.Queries[20:25])})
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("batch overflowing a nearly full queue: %d (Retry-After %q), want 429: %s", resp.StatusCode, resp.Header.Get("Retry-After"), raw)
	}
	if err := json.Unmarshal(raw, &er); err != nil || er.Error.Code != api.CodeOverloaded {
		t.Fatalf("429 body %s (%v), want code %s", raw, err, api.CodeOverloaded)
	}
	if depth.Value() != base+4 {
		t.Fatalf("queue depth %d after the refused batch, want %d", depth.Value(), base+4)
	}
	if resp, raw := postJSON(t, ts.URL+"/v1/observe", api.ObserveRequest{Observations: observations(pool.Queries[25:29])}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch that fits: %d, want 202: %s", resp.StatusCode, raw)
	}
	close(gate.release)
	if err := <-saved; err != nil {
		t.Fatal(err)
	}

	s.Close() // drains the observe queue
	if m := model(); m.Generation != 1 || m.WindowSize != 19 {
		t.Fatalf("after the refused batches: generation %d, window_size %d; want 1 and 19", m.Generation, m.WindowSize)
	}
	if got := observed.Value() - before; got != 9 {
		t.Fatalf("core.sliding.observed rose by %d, want 9: a refused batch was partly applied", got)
	}
}

// TestModelEndpointIndexPruning: GET /v1/model says how the generation's
// index has pruned — searches served, mean candidates scored and abandoned
// per search — and predict responses, which embed the same model object,
// carry none of it (their bytes must not depend on traffic history). A
// search is run once per distinct feature vector a generation sees: the
// same request again is answered from the prediction cache and searches
// nothing, while the prediction and cache-hit counters still count it.
func TestModelEndpointIndexPruning(t *testing.T) {
	pool, pred := fixture(t)
	cfg := baseConfig(t)
	// A same-options clone: the fixture's model and index behind an empty
	// prediction cache, whatever other tests have asked the fixture.
	cfg.Predictor = pred.WithKNN(pred.Options().KNN)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	index := func() *api.IndexInfo {
		t.Helper()
		_, raw := getBody(t, ts.URL+"/v1/model")
		var body struct {
			Model *api.ModelInfo `json:"model"`
		}
		if err := json.Unmarshal(raw, &body); err != nil || body.Model == nil || body.Model.Index == nil {
			t.Fatalf("model body %s: %v", raw, err)
		}
		return body.Model.Index
	}
	req := api.PredictRequest{}
	distinct := map[uint64]bool{}
	for _, q := range pool.Queries[130:137] {
		req.Queries = append(req.Queries, api.QueryInput{SQL: q.SQL})
		fp, err := core.QueryFingerprint(planLocal(t, q.SQL), core.PlanFeatures)
		if err != nil {
			t.Fatal(err)
		}
		distinct[fp] = true
	}
	n := int64(len(req.Queries))
	cacheHits := obs.GetCounter("core.projcache.hits")

	before := index() // the index is the fixture's: other tests searched it too
	predicted, hits := corePredictCount.Value(), cacheHits.Value()
	resp, raw := postJSON(t, ts.URL+"/v1/predict", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict %d: %s", resp.StatusCode, raw)
	}
	if pr := decodePredict(t, raw); pr.Model.Index == nil || pr.Model.Index.Points != pred.N() ||
		bytes.Contains(raw, []byte("searches")) || bytes.Contains(raw, []byte("mean_scored")) {
		t.Fatalf("predict response should carry the index's static shape only: %s", raw)
	}
	after := index()
	if got := after.Searches - before.Searches; got != int64(len(distinct)) {
		t.Fatalf("searches went from %d to %d over %d unseen vectors", before.Searches, after.Searches, len(distinct))
	}
	if got := cacheHits.Value() - hits; got != n-int64(len(distinct)) {
		t.Fatalf("%d cache hits on a cold cache, want %d (vectors repeated within the request)", got, n-int64(len(distinct)))
	}
	if after.MeanScored != float64(after.Points) || after.MeanAbandoned < 0 || after.MeanAbandoned > after.MeanScored {
		t.Fatalf("index figures %+v: want mean_scored = points (every search offers every point) and 0 ≤ mean_abandoned ≤ mean_scored", after)
	}

	hits = cacheHits.Value()
	resp, again := postJSON(t, ts.URL+"/v1/predict", req)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(again, raw) {
		t.Fatalf("the same request again: %d %s, first answer %s", resp.StatusCode, again, raw)
	}
	if got := index().Searches; got != after.Searches {
		t.Fatalf("searches went from %d to %d answering cached vectors", after.Searches, got)
	}
	if got := cacheHits.Value() - hits; got != n {
		t.Fatalf("%d cache hits for %d cached queries", got, n)
	}
	if got := corePredictCount.Value() - predicted; got != 2*n {
		t.Fatalf("core.predict.count advanced by %d over two requests of %d", got, n)
	}
}

func TestModelEndpointAndDrain(t *testing.T) {
	pool, pred := fixture(t)
	s, err := New(baseConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/model")
	if err != nil {
		t.Fatal(err)
	}
	raw := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("model %d: %s", resp.StatusCode, raw)
	}
	var body struct {
		Version string         `json:"version"`
		Model   *api.ModelInfo `json:"model"`
	}
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatal(err)
	}
	if body.Version != api.Version || body.Model == nil ||
		body.Model.TrainedOn != pred.N() || body.Model.Generation != 1 || body.Model.Swaps != 0 {
		t.Errorf("model body %s", raw)
	}

	// Drain: new work is refused, Close is idempotent, readyz flips.
	s.Close()
	s.Close()
	resp2, raw2 := postJSON(t, ts.URL+"/v1/predict", api.PredictRequest{SQL: pool.Queries[121].SQL})
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining predict %d, want 503: %s", resp2.StatusCode, raw2)
	}
	var er api.ErrorResponse
	if err := json.Unmarshal(raw2, &er); err != nil {
		t.Fatal(err)
	}
	if er.Error.Code != api.CodeShuttingDown {
		t.Errorf("code %q, want %q", er.Error.Code, api.CodeShuttingDown)
	}
	if resp, _ := http.Get(ts.URL + "/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz %d, want 503", resp.StatusCode)
	}
}
