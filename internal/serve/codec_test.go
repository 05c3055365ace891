package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/testutil"
)

// The wire codec at the handler. Predict responses are written by
// api.AppendPredictResponse, partly from fragments memoized on prediction-
// cache entries; these tests hold every body to encoding/json without a
// parent build to compare against: decoded with json.Unmarshal and encoded
// again with json.Encoder, a body must come back byte for byte — so it is
// what encoding/json would have written for the values it carries — and
// the values must be the ones the generation named in each result predicts.

// mustReencode fails unless raw is exactly json.Encoder's encoding of what
// it decodes to, and returns the decoded response. It also reads the body as
// the daemon's own client does: api.DecodePredictResponse must give the same
// value, and in one pass — the stock daemon never sends pkg/qpredictclient
// down the slow path.
func mustReencode(t testing.TB, ctx string, raw []byte) api.PredictResponse {
	t.Helper()
	var pr api.PredictResponse
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&pr); err != nil {
		t.Fatalf("%s: %v: %s", ctx, err, raw)
	}
	var again bytes.Buffer
	if err := json.NewEncoder(&again).Encode(pr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, again.Bytes()) {
		t.Fatalf("%s: body is not encoding/json's\n wire: %s\nagain: %s", ctx, raw, again.Bytes())
	}
	var client api.PredictResponse
	fallback, err := api.DecodePredictResponse(raw, &client)
	if err != nil || !reflect.DeepEqual(client, pr) {
		t.Fatalf("%s: the client's decoder (err %v) made %+v of %s", ctx, err, client, raw)
	}
	if fallback {
		t.Fatalf("%s: the client's decoder fell back to encoding/json on %s", ctx, raw)
	}
	return pr
}

// mustPredictWith checks every served result of pr against a direct Predict
// on the predictor of the generation the result names.
func mustPredictWith(t testing.TB, ctx string, pr api.PredictResponse, byGen map[int64]*core.Predictor) {
	t.Helper()
	for i, r := range pr.Results {
		if r.Error != nil {
			if r.Metrics != nil || r.Category != "" || r.Confidence != 0 || r.Generation != 0 || r.ModelKind != "" {
				t.Fatalf("%s result %d: a failed result carries a prediction: %+v", ctx, i, r)
			}
			continue
		}
		pred := byGen[r.Generation]
		if pred == nil {
			t.Fatalf("%s result %d: served by unexpected generation %d", ctx, i, r.Generation)
		}
		want := pred.Predict(core.Request{Query: planLocal(t, r.SQL)})[0]
		if want.Err != nil {
			t.Fatal(want.Err)
		}
		if r.Metrics == nil || *r.Metrics != api.MetricsFrom(want.Prediction.Metrics) ||
			r.Category != want.Prediction.Category.String() || r.Confidence != want.Prediction.Confidence ||
			r.ModelKind != "kcca" || r.OptimizerCost != planLocal(t, r.SQL).Plan.Cost {
			t.Fatalf("%s result %d (generation %d): wire %+v %+v, direct predict %+v", ctx, i, r.Generation, r, r.Metrics, want.Prediction)
		}
	}
}

var (
	badSQL = []string{"SELECT FROM WHERE", "SELECT COUNT(*) FROM no_such_table_anywhere"}
	// Plannable, and outside what the request decoder's fast path and the
	// response encoder's plain-byte run take: raw UTF-8, the two separators
	// JavaScript cannot hold, HTML characters, a tab and a newline.
	awkwardSQL = "SELECT COUNT(*)\n\tFROM item WHERE i_category <> 'caf\xc3\xa9 \xe2\x80\xa8 \xe2\x80\xa9 <&>'"
)

// codecCounters reads the three codec counters.
func codecCounters() (fallbacks, hits, fills int64) {
	return decodeFallbacks.Value(), encodeMemoHits.Value(), encodeMemoFills.Value()
}

// freshPredictor trains a predictor nobody else holds, so its prediction
// cache and memos start empty.
func freshPredictor(t testing.TB, lo, hi int, twoStep bool) *core.Predictor {
	t.Helper()
	pool, _ := fixture(t)
	opt := core.DefaultOptions()
	opt.TwoStep = twoStep
	pred, err := core.Train(pool.Queries[lo:hi], opt)
	if err != nil {
		t.Fatal(err)
	}
	return pred
}

// TestPredictBodiesAreEncodingJSONs is the handler oracle over singles,
// batches with parse and plan errors mixed in, the shorthand combined with a
// batch, SQL that needs every kind of escape, and a batch sent again — the
// first pass computes and fills the memos, the second is served from them —
// on a one-step and a two-step predictor.
func TestPredictBodiesAreEncodingJSONs(t *testing.T) {
	pool, _ := fixture(t)
	for _, twoStep := range []bool{false, true} {
		pred := freshPredictor(t, 0, 120, twoStep)
		cfg := baseConfig(t)
		cfg.Predictor = pred
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		byGen := map[int64]*core.Predictor{1: pred}

		var batch api.PredictRequest
		for _, q := range pool.Queries[120:150] {
			batch.Queries = append(batch.Queries, api.QueryInput{SQL: q.SQL})
		}
		batch.Queries = append(batch.Queries, batch.Queries[:10]...) // repeats inside the batch
		batch.Queries[7].SQL, batch.Queries[19].SQL, batch.Queries[33].SQL = badSQL[0], badSQL[1], awkwardSQL
		requests := []api.PredictRequest{
			{SQL: pool.Queries[150].SQL},
			{Queries: []api.QueryInput{{SQL: pool.Queries[151].SQL}}},
			{SQL: badSQL[0]},
			{SQL: awkwardSQL},
			{SQL: pool.Queries[152].SQL, Queries: []api.QueryInput{{SQL: badSQL[1]}, {SQL: pool.Queries[150].SQL}}},
			batch,
		}
		served := 0
		for _, in := range batch.Inputs() {
			if in.SQL != badSQL[0] && in.SQL != badSQL[1] {
				served++
			}
		}
		for pass := 0; pass < 3; pass++ {
			for i, req := range requests {
				ctx := fmt.Sprintf("twoStep=%v pass %d request %d", twoStep, pass, i)
				raw, _ := json.Marshal(req)
				fallbacks, hits, fills := codecCounters()
				rec := serveBody(s, context.Background(), string(raw))
				if rec.Code != http.StatusOK {
					t.Fatalf("%s: status %d: %s", ctx, rec.Code, rec.Body)
				}
				pr := mustReencode(t, ctx, rec.Body.Bytes())
				if len(pr.Results) != len(req.Inputs()) {
					t.Fatalf("%s: %d results for %d inputs", ctx, len(pr.Results), len(req.Inputs()))
				}
				for k, in := range req.Inputs() {
					if pr.Results[k].SQL != in.SQL || (pr.Results[k].Error != nil) != (in.SQL == badSQL[0] || in.SQL == badSQL[1]) {
						t.Fatalf("%s result %d: %+v for %q", ctx, k, pr.Results[k], in.SQL)
					}
				}
				mustPredictWith(t, ctx, pr, byGen)

				f, h, fl := codecCounters()
				// json.Marshal writes the raw UTF-8 of awkwardSQL as it is,
				// which is encoding/json's to decode.
				if want := int64(strings.Count(string(raw), "caf")); f-fallbacks != want {
					t.Errorf("%s: %d decode fallbacks, want %d", ctx, f-fallbacks, want)
				}
				if i == len(requests)-1 {
					// The big batch: every served result has a memo. Once the
					// first pass has filled them, every one is a hit.
					if got := (h - hits) + (fl - fills); got != int64(served) {
						t.Errorf("%s: %d memo hits + %d fills for %d served results", ctx, h-hits, fl-fills, served)
					}
					if pass > 0 && fl != fills {
						t.Errorf("%s: %d memos filled on a repeated batch", ctx, fl-fills)
					}
				}
			}
		}
	}
}

// TestPredictBodyAcrossHotSwap: a request cut into three micro-batches with
// a swap to a different model after the first. Each result is the encoding
// of what its own generation predicts — no fragment crosses generations —
// and when the same model is republished under a new generation the
// fragments it shares between the two are still right, because generation
// is not part of a fragment.
func TestPredictBodyAcrossHotSwap(t *testing.T) {
	pool, _ := fixture(t)
	first, second := freshPredictor(t, 0, 120, false), freshPredictor(t, 20, 140, false)
	for name, next := range map[string]*core.Predictor{"another model": second, "the same model republished": first} {
		cfg := baseConfig(t)
		cfg.Predictor, cfg.MaxBatch = first, 8
		var s *Server
		s, m := recordingServer(t, cfg, func(call, _ int) {
			if call == 0 {
				s.router.Shard(0).Publish(next)
			}
		})
		defer s.Close()
		qs := append(pool.Queries[140:152:152], pool.Queries[140:152]...)
		for pass := 0; pass < 2; pass++ {
			rec := serveBody(s, context.Background(), predictBody(qs))
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", name, rec.Code, rec.Body)
			}
			pr := mustReencode(t, name, rec.Body.Bytes())
			mustPredictWith(t, name, pr, map[int64]*core.Predictor{1: first, 2: next})
			for i, r := range pr.Results {
				want := int64(2)
				if pass == 0 && i < 8 {
					want = 1
				}
				if r.Generation != want {
					t.Fatalf("%s pass %d result %d: generation %d, want %d", name, pass, i, r.Generation, want)
				}
			}
		}
		if sizes := m.Sizes(); len(sizes) != 1 || sizes[0] != 8 {
			t.Fatalf("%s: the recording model saw batches %v, want the first run only", name, sizes)
		}
	}
}

// TestShardedPredictBodies: a caller's router writes through the same
// writePredict as the one-shard shorthand. One passthrough shard is
// byte-identical to the shorthand server over the same predictor (they share
// its memos); two shards add the shard field under the same oracle.
func TestShardedPredictBodies(t *testing.T) {
	pool, pred := fixture(t)
	plain, err := New(baseConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	one := newShardedServer(t, 1, shard.Passthrough{}, 60, 30)
	defer one.Close()
	two := newShardedServer(t, 2, shard.NewHashPartitioner(2, core.DefaultOptions().Features), 60, 30)
	defer two.Close()

	qs := append(pool.Queries[120:150:150], pool.Queries[125:135]...)
	body := predictBody(qs)
	body = strings.Replace(body, `{"queries":[`, `{"queries":[{"sql":"`+badSQL[0]+`"},`, 1)
	byGen := map[int64]*core.Predictor{1: pred}
	for pass := 0; pass < 2; pass++ {
		want := serveBody(plain, context.Background(), body)
		got := serveBody(one, context.Background(), body)
		if want.Code != http.StatusOK || got.Code != http.StatusOK || !bytes.Equal(want.Body.Bytes(), got.Body.Bytes()) {
			t.Fatalf("pass %d: a one-shard router diverged from the shorthand\nshorthand %d: %s\n   router %d: %s", pass, want.Code, want.Body, got.Code, got.Body)
		}
		mustPredictWith(t, "one shard", mustReencode(t, "one shard", got.Body.Bytes()), byGen)

		rec := serveBody(two, context.Background(), body)
		if rec.Code != http.StatusOK {
			t.Fatalf("two shards: status %d: %s", rec.Code, rec.Body)
		}
		pr := mustReencode(t, "two shards", rec.Body.Bytes())
		mustPredictWith(t, "two shards", pr, byGen)
		seen := map[string]bool{}
		for _, r := range pr.Results[1:] {
			seen[r.Shard] = true
		}
		if pr.Results[0].Error == nil || !seen["0"] || !seen["1"] || len(seen) != 2 {
			t.Fatalf("two shards: shard fields %v: %s", seen, rec.Body)
		}
	}
}

// TestConcurrentMemoFill: 8 goroutines post the same batch to a server whose
// predictor has never answered anything, so computing, inserting, filling
// and hitting the memos all race. Every body is the same, and encoding/json's.
// Run under -race.
func TestConcurrentMemoFill(t *testing.T) {
	pool, _ := fixture(t)
	pred := freshPredictor(t, 0, 120, false)
	cfg := baseConfig(t)
	cfg.Predictor = pred
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	body := predictBody(append(pool.Queries[120:160:160], pool.Queries[120:144]...))
	const clients, rounds = 8, 6
	bodies := make([][]byte, clients*rounds)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				rec := serveBody(s, context.Background(), body)
				if rec.Code != http.StatusOK {
					t.Errorf("client %d round %d: status %d: %s", c, r, rec.Code, rec.Body)
					return
				}
				bodies[c*rounds+r] = rec.Body.Bytes()
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, b := range bodies {
		if !bytes.Equal(b, bodies[0]) {
			t.Fatalf("body %d differs from body 0\n%s\n%s", i, b, bodies[0])
		}
	}
	mustPredictWith(t, "concurrent", mustReencode(t, "concurrent", bodies[0]), map[int64]*core.Predictor{1: pred})
}

// TestHugeObservedMetricsServeFinite: /v1/observe admits any finite metric,
// so a window can hold observations near the top of float64 (here every
// other one at 1e308 seconds and records). The neighbours' weighted sum of
// such values overflows where their mean does not; every query is served
// that finite mean, computed and then from the prediction cache, beside a
// parse error that still fails alone. How a non-finite result is answered
// is pinned in the codec (api's TestNonFiniteResultFailsAlone).
func TestHugeObservedMetricsServeFinite(t *testing.T) {
	pool, _ := fixture(t)
	sliding, err := core.NewSliding(40, 10, core.DefaultOptions())
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
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var req api.ObserveRequest
	for i, q := range pool.Queries[:40] {
		m := api.MetricsFrom(q.Metrics)
		if i%2 == 0 {
			m.ElapsedSec, m.RecordsAccessed = 1e308, 1e308
		}
		req.Observations = append(req.Observations, api.Observation{SQL: q.SQL, Metrics: m})
	}
	if resp, raw := postJSON(t, ts.URL+"/v1/observe", req); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("observe: %d %s", resp.StatusCode, raw)
	}
	settleModel(t, ts.URL, 40, 5)

	var predict api.PredictRequest
	for _, q := range pool.Queries[100:160] {
		predict.Queries = append(predict.Queries, api.QueryInput{SQL: q.SQL})
	}
	predict.Queries[3].SQL = badSQL[0]
	for pass := 0; pass < 2; pass++ { // computed, then from the prediction cache
		resp, raw := postJSON(t, ts.URL+"/v1/predict", predict)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
			t.Fatalf("status %d, Content-Type %q: %s", resp.StatusCode, resp.Header.Get("Content-Type"), raw)
		}
		pr := mustReencode(t, "huge metrics", raw)
		var huge int
		for i, r := range pr.Results {
			if i == 3 {
				if r.Error == nil || r.Error.Code != api.CodeParse {
					t.Fatalf("result 3: %+v", r)
				}
				continue
			}
			if r.Error != nil || r.Metrics == nil || math.IsInf(r.Metrics.ElapsedSec, 0) || r.Generation != 5 {
				t.Fatalf("result %d: %+v", i, r)
			}
			if r.Metrics.ElapsedSec > 6e307 { // two or three of its three neighbours: Σ > MaxFloat64
				huge++
			}
		}
		t.Logf("pass %d: %d of %d served results average two or more neighbours at 1e308", pass, huge, len(pr.Results)-1)
		if huge == 0 {
			t.Fatalf("pass %d: no result averages two neighbours at 1e308: the fixture no longer reaches the overflow", pass)
		}
	}
}

// TestEncodeFailureIsTheEnvelope: what encoding/json still encodes — here
// the model block of a predict response — reports a refusal in the same
// envelope as every other failure, not as a text/plain 500.
func TestEncodeFailureIsTheEnvelope(t *testing.T) {
	for name, write := range map[string]func(http.ResponseWriter){
		"writeJSON": func(w http.ResponseWriter) {
			writeJSON(w, http.StatusOK, api.IndexInfo{MeanAbandoned: math.NaN()})
		},
		"writePredict": func(w http.ResponseWriter) {
			writePredict(w, &api.ModelInfo{Index: &api.IndexInfo{MeanScored: math.Inf(1)}}, newPredictReply(1))
		},
	} {
		rec := httptest.NewRecorder()
		write(rec)
		var body api.ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("%s: %v: %s", name, err, rec.Body)
		}
		if rec.Code != http.StatusInternalServerError || rec.Header().Get("Content-Type") != "application/json" ||
			body.Version != api.Version || body.Error.Code != api.CodeInternal || !strings.Contains(body.Error.Message, "unsupported value") {
			t.Fatalf("%s: status %d, Content-Type %q, body %s", name, rec.Code, rec.Header().Get("Content-Type"), rec.Body)
		}
	}
}

// BenchmarkPredictHandlerHot64 is one 64-query predict through the real
// handler with every cache warm — plan cache, prediction cache, memos — and
// an httptest recorder for a connection: decode, 64 plan-cache hits, one
// coalesced Predict, encode.
func BenchmarkPredictHandlerHot64(b *testing.B) {
	pool, _ := fixture(b)
	s, err := New(baseConfig(b))
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	body := predictBody(pool.Queries[:64])
	h := s.Handler()
	rec := httptest.NewRecorder()
	do := func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(body))
		rec.Body.Reset()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	for i := 0; i < 5; i++ {
		do()
	}
	_, hits, _ := codecCounters()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		do()
	}
	b.StopTimer()
	if _, now, _ := codecCounters(); now-hits != int64(64*b.N) {
		b.Fatalf("%d memo hits over %d hot 64-query requests", now-hits, b.N)
	}
}

// BenchmarkPredictHandlerCold64 is the batch-cold workload's request in
// process: 64 distinct statements per request, cycling 16,384 of them
// through the stock 4,096-entry plan cache on an 800-row stock model, so
// every statement parses, plans, extracts features and takes over an
// evicted entry, and most of them project and search too. Its B/op and
// allocs/op are what a cold request leaves for the collector.
func BenchmarkPredictHandlerCold64(b *testing.B) {
	const batch, distinct = 64, 16384
	qs := testutil.StockQueries(b, testutil.StockTrain)
	pred, err := core.Train(qs, core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(Config{
		Predictor: pred,
		Schema:    catalog.TPCDS(1),
		Machine:   exec.Research4(),
		DataSeed:  3,
		Timeout:   10 * time.Second,
		Plans:     NewPlanner(catalog.TPCDS(1), 3, exec.Research4(), 4096),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	sqls := testutil.DistinctStockSQL(b, distinct)
	bodies := make([]string, distinct/batch)
	for i := range bodies {
		req := api.PredictRequest{}
		for _, sql := range sqls[i*batch : (i+1)*batch] {
			req.Queries = append(req.Queries, api.QueryInput{SQL: sql})
		}
		raw, err := json.Marshal(req)
		if err != nil {
			b.Fatal(err)
		}
		bodies[i] = string(raw)
	}
	h := s.Handler()
	rec := httptest.NewRecorder()
	next := 0
	do := func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(bodies[next%len(bodies)]))
		next++
		rec.Body.Reset()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	for range bodies { // one lap fills the plan cache and the pools
		do()
	}
	misses := obs.GetCounter("core.plancache.misses")
	before := misses.Value()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		do()
	}
	b.StopTimer()
	if n := misses.Value() - before; n != int64(batch*b.N) {
		b.Fatalf("%d plan-cache misses over %d cold 64-query requests", n, b.N)
	}
}
