package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/shard"
)

// newShardedServer builds a Server backed by the shard tier: n shards, each
// booted from the fixture model with its own sliding window.
func newShardedServer(t testing.TB, n int, part shard.Partitioner, capacity, every int) *Server {
	t.Helper()
	_, pred := fixture(t)
	cfgs := make([]shard.ShardConfig, n)
	for i := range cfgs {
		sl, err := core.NewSliding(capacity, every, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		cfgs[i] = shard.ShardConfig{Boot: pred, Sliding: sl}
	}
	router, err := shard.NewRouter(cfgs, part, shard.Config{}, true)
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(t)
	cfg.Predictor = nil
	cfg.Router = router
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// getBody fetches a URL and returns status + body.
func getBody(t testing.TB, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, readAll(t, resp)
}

// settleModel polls /v1/model until the reported window size and generation
// reach want, returning the settled body.
func settleModel(t testing.TB, url string, window int, gen int64) []byte {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, raw := getBody(t, url+"/v1/model")
		var body struct {
			Model *api.ModelInfo `json:"model"`
		}
		if json.Unmarshal(raw, &body) == nil && body.Model != nil &&
			body.Model.WindowSize == window && body.Model.Generation == gen {
			return raw
		}
		if time.Now().After(deadline) {
			t.Fatalf("model never settled to window %d generation %d: %s", window, gen, raw)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// legacyEngineDir holds what the single-model engine this package had until
// PR 23 (swap.go: its own model slot, coalescer and observe loop) answered
// to engineScript, written by that engine at the last commit that had it.
// The files are the reference, not a snapshot of current behaviour: a change
// that makes the comparison fail is wrong, and the files are never
// regenerated to make it pass. The one edit since is by hand, to the
// model's "index" object alone: when the KD-tree gave way to the exact scan
// it describes, "kdtree" became "flat" and "nodes" and "min_points" became
// 0. Every other byte, every prediction included, is the legacy engine's.
const legacyEngineDir = "testdata/legacy-engine"

// engineScript drives one server through boot state, predictions, error
// paths, a background retrain with its hot swap, and the drain, handing
// step every response whose bytes are deterministic. It is the function that
// recorded legacyEngineDir, verbatim, with a step that wrote files. The
// served predictor is trained for the script alone, so no other test's
// traffic shows in /v1/model's pruning figures.
func engineScript(t *testing.T, url string, drain func(), step func(label string, resp *http.Response, raw []byte)) {
	t.Helper()
	pool, _ := fixture(t)
	get := func(label, path string) {
		t.Helper()
		resp, err := http.Get(url + path)
		if err != nil {
			t.Fatal(err)
		}
		step(label, resp, readAll(t, resp))
	}
	post := func(label, path string, body any) {
		t.Helper()
		resp, raw := postJSON(t, url+path, body)
		step(label, resp, raw)
	}

	// Boot state: readiness, model metadata.
	get("readyz", "/readyz")
	get("model", "/v1/model")

	// Predictions: single, batch, mixed good/bad SQL.
	post("predict-single", "/v1/predict", api.PredictRequest{SQL: pool.Queries[130].SQL})
	post("predict-batch", "/v1/predict", api.PredictRequest{Queries: []api.QueryInput{
		{SQL: pool.Queries[121].SQL},
		{SQL: "SELEC nonsense FROM ("},
		{SQL: "SELECT COUNT(*) FROM no_such_table"},
		{SQL: pool.Queries[122].SQL},
	}})

	// Error paths: empty body, wrong method.
	post("predict-empty", "/v1/predict", api.PredictRequest{})
	get("predict-method", "/v1/predict")
	post("observe-empty", "/v1/observe", api.ObserveRequest{})

	// Observe enough to cross the retrain threshold. Training is
	// deterministic, so the generation 2 model is the one the legacy engine
	// swapped in. The observe response reports an asynchronously updated
	// window mirror and is not compared; /v1/model, once settled, is.
	var obs []api.Observation
	for _, q := range pool.Queries[:engineEvery] {
		obs = append(obs, api.Observation{SQL: q.SQL, Metrics: api.MetricsFrom(q.Metrics)})
	}
	resp, raw := postJSON(t, url+"/v1/observe", api.ObserveRequest{Observations: obs})
	var or api.ObserveResponse
	if err := json.Unmarshal(raw, &or); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted || or.Accepted != engineEvery || or.Shard != "" {
		t.Fatalf("observe status %d: %s", resp.StatusCode, raw)
	}
	step("model-settled", &http.Response{StatusCode: http.StatusOK}, settleModel(t, url, engineEvery, 2))
	post("predict-after-swap", "/v1/predict", api.PredictRequest{Queries: []api.QueryInput{
		{SQL: pool.Queries[140].SQL}, {SQL: pool.Queries[141].SQL},
	}})

	drain()
	post("draining-predict", "/v1/predict", api.PredictRequest{SQL: pool.Queries[130].SQL})
	get("draining-readyz", "/readyz")
}

// The script's sliding window: ten observations complete the first retrain.
const engineCapacity, engineEvery = 30, 10

// TestShardedSingleEquivalence is the licence under which the single-model
// engine was deleted, kept after it: a Server built from the one-shard
// shorthand (Config{Predictor, Sliding}) must be byte-identical on the wire
// to that engine — same success bodies, same error bodies, same headers
// that clients branch on — across predicts, observes, a background retrain
// and the resulting hot swap. The one deliberate difference is /v1/shards,
// which the legacy engine refused with 400 and every daemon now answers.
func TestShardedSingleEquivalence(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The reference bytes include floats computed on amd64; another
		// architecture may fuse multiply-adds and round differently. The
		// comparison is exact or it is nothing, so it is not loosened.
		t.Skipf("reference bodies were written on amd64, this is %s", runtime.GOARCH)
	}
	sliding, err := core.NewSliding(engineCapacity, engineEvery, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(t)
	cfg.Predictor, cfg.Sliding = freshPredictor(t, 0, 120, false), sliding
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	bodies := map[string][]byte{}
	engineScript(t, ts.URL, s.Close, func(label string, resp *http.Response, raw []byte) {
		t.Helper()
		want, err := os.ReadFile(filepath.Join(legacyEngineDir, label+".http"))
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("%d Retry-After=%q\n%s", resp.StatusCode, resp.Header.Get("Retry-After"), raw)
		if got != string(want) {
			t.Fatalf("%s differs from the legacy engine\nlegacy: %s\n   now: %s", label, want, got)
		}
		bodies[label] = raw
	})

	raw := bodies["predict-after-swap"]
	pr := decodePredict(t, raw)
	if pr.Model.Generation != 2 || pr.Model.Swaps != 1 {
		t.Fatalf("post-swap model %+v, want generation 2", pr.Model)
	}
	for i, res := range pr.Results {
		if res.Error != nil || res.Shard != "" || res.Generation != 2 {
			t.Fatalf("post-swap result %d: %+v", i, res)
		}
	}
	if strings.Contains(string(raw), `"shards"`) || strings.Contains(string(raw), `"partitioner"`) {
		t.Fatalf("single-shard response leaks shard fields: %s", raw)
	}

	// The one deliberate difference: /v1/shards.
	st, body := getBody(t, ts.URL+"/v1/shards")
	if st != http.StatusOK {
		t.Fatalf("/v1/shards status %d: %s", st, body)
	}
	var sh api.ShardsResponse
	if err := json.Unmarshal(body, &sh); err != nil {
		t.Fatal(err)
	}
	if len(sh.Shards) != 1 || sh.Partitioner != "passthrough" || !sh.Shards[0].Ready {
		t.Fatalf("shards body %s", body)
	}
	if sh.Shards[0].Generation != 2 || sh.Shards[0].TrainedOn != engineEvery {
		t.Fatalf("shard 0 state %+v, want generation 2 trained on %d", sh.Shards[0], engineEvery)
	}
}

// TestOneShardShorthand: a server built from Config{Predictor} is a router
// of one shard like any other. /v1/shards answers with that shard, its
// per-shard metrics advance with traffic, and — one shard partitions
// nothing — no predict or observe response names a shard.
func TestOneShardShorthand(t *testing.T) {
	pool, pred := fixture(t)
	sliding, err := core.NewSliding(30, 10, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(t)
	cfg.Sliding = sliding
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mux := http.NewServeMux()
	mux.Handle("/", s.Handler())
	mux.Handle("/metrics", obs.Handler())
	ts := httptest.NewServer(mux)
	defer ts.Close()

	shardPredictions := func() int64 {
		t.Helper()
		_, raw := getBody(t, ts.URL+"/metrics")
		var snap struct {
			Counters map[string]int64 `json:"counters"`
		}
		if err := json.Unmarshal(raw, &snap); err != nil {
			t.Fatal(err)
		}
		n, ok := snap.Counters["serve.shard.0.predictions"]
		if !ok {
			t.Fatalf("/metrics has no serve.shard.0.predictions: %s", raw)
		}
		return n
	}
	before := shardPredictions()
	resp, praw := postJSON(t, ts.URL+"/v1/predict", api.PredictRequest{Queries: []api.QueryInput{
		{SQL: pool.Queries[130].SQL}, {SQL: pool.Queries[131].SQL}, {SQL: pool.Queries[132].SQL},
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict %d: %s", resp.StatusCode, praw)
	}
	if got := shardPredictions() - before; got != 3 {
		t.Fatalf("serve.shard.0.predictions advanced by %d over 3 predictions", got)
	}
	q := pool.Queries[0]
	resp, oraw := postJSON(t, ts.URL+"/v1/observe", api.ObserveRequest{Observations: []api.Observation{
		{SQL: q.SQL, Metrics: api.MetricsFrom(q.Metrics)},
	}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("observe %d: %s", resp.StatusCode, oraw)
	}
	for _, raw := range [][]byte{praw, oraw} {
		for _, field := range []string{`"shard"`, `"fallback_shard"`, `"shards"`, `"partitioner"`} {
			if bytes.Contains(raw, []byte(field)) {
				t.Fatalf("one-shard response carries %s: %s", field, raw)
			}
		}
	}

	st, body := getBody(t, ts.URL+"/v1/shards")
	if st != http.StatusOK {
		t.Fatalf("/v1/shards status %d: %s", st, body)
	}
	var sh api.ShardsResponse
	if err := json.Unmarshal(body, &sh); err != nil {
		t.Fatal(err)
	}
	if sh.Partitioner != "passthrough" || len(sh.Shards) != 1 {
		t.Fatalf("shards body %s", body)
	}
	if s0 := sh.Shards[0]; s0.ID != 0 || !s0.Ready || s0.Generation != 1 || s0.TrainedOn != pred.N() || s0.Predictions != 3 {
		t.Fatalf("shard 0 %+v, want id 0, ready, generation 1, trained on %d, 3 predictions", s0, pred.N())
	}
}

// TestShardedServeHTTP exercises the multi-shard daemon over HTTP: shard
// fields appear on results, the aggregate model view reports the tier, and
// /v1/shards breaks it down per shard.
func TestShardedServeHTTP(t *testing.T) {
	pool, pred := fixture(t)
	part := shard.NewHashPartitioner(4, core.DefaultOptions().Features)
	s := newShardedServer(t, 4, part, 20, 5)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var inputs []api.QueryInput
	for _, q := range pool.Queries[120:150] {
		inputs = append(inputs, api.QueryInput{SQL: q.SQL})
	}
	resp, raw := postJSON(t, ts.URL+"/v1/predict", api.PredictRequest{Queries: inputs})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict %d: %s", resp.StatusCode, raw)
	}
	pr := decodePredict(t, raw)
	if pr.Model == nil || pr.Model.Shards != 4 || pr.Model.Partitioner != "hash" {
		t.Fatalf("model info %+v, want 4 shards via hash", pr.Model)
	}
	if pr.Model.TrainedOn != 4*pred.N() {
		t.Errorf("trained_on %d, want %d (sum across shards)", pr.Model.TrainedOn, 4*pred.N())
	}
	seen := map[string]bool{}
	for i, r := range pr.Results {
		if r.Error != nil {
			t.Fatalf("result %d: %+v", i, r.Error)
		}
		if r.Shard == "" {
			t.Fatalf("result %d missing shard field: %+v", i, r)
		}
		if r.FallbackShard != "" {
			t.Fatalf("result %d reports a fallback on a fully warm tier: %+v", i, r)
		}
		seen[r.Shard] = true
		// Routing matches the partitioner run locally on the same plan.
		want, err := part.Route(planLocal(t, r.SQL))
		if err != nil {
			t.Fatal(err)
		}
		if r.Shard != fmt.Sprint(want) {
			t.Errorf("result %d routed to shard %s, partitioner says %d", i, r.Shard, want)
		}
	}
	if len(seen) < 2 {
		t.Errorf("30 queries all hashed to one shard: %v", seen)
	}

	// Observations land on their owning shards and /v1/shards reports them.
	var obs []api.Observation
	for _, q := range pool.Queries[:8] {
		obs = append(obs, api.Observation{SQL: q.SQL, Metrics: api.MetricsFrom(q.Metrics)})
	}
	oresp, oraw := postJSON(t, ts.URL+"/v1/observe", api.ObserveRequest{Observations: obs})
	if oresp.StatusCode != http.StatusAccepted {
		t.Fatalf("observe %d: %s", oresp.StatusCode, oraw)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, body := getBody(t, ts.URL+"/v1/shards")
		if st != http.StatusOK {
			t.Fatalf("shards %d: %s", st, body)
		}
		var sh api.ShardsResponse
		if err := json.Unmarshal(body, &sh); err != nil {
			t.Fatal(err)
		}
		if len(sh.Shards) != 4 || sh.Partitioner != "hash" {
			t.Fatalf("shards body %s", body)
		}
		total, totalPred := 0, int64(0)
		for _, si := range sh.Shards {
			total += si.WindowSize
			totalPred += si.Predictions
		}
		if total == len(obs) {
			if totalPred < int64(len(inputs)) {
				t.Fatalf("predictions across shards %d, want at least %d", totalPred, len(inputs))
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("windows never absorbed %d observations: %s", len(obs), body)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
