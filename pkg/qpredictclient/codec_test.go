package qpredictclient

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/testutil"
)

// Predict goes through the wire codec (internal/api); these tests hold the
// client to what encoding/json made of the same bytes, and to the codec's
// allocation budget.

// zooPredictJSON is a /v1/predict body from a sharded daemon that ran the
// model zoo: shard fields, model_kind, a champion block (which the client
// ignores), a cold-start fallback and a per-query error.
const zooPredictJSON = `{
  "version": "v1",
  "model": {"generation": 7, "trained_on": 500, "features": "plan+text", "two_step": true, "swaps": 6, "shards": 2, "partitioner": "hash", "model_kind": "mixed",
    "champion": {"kind": "mixed", "promotions": 1}},
  "results": [
    {"sql": "SELECT 1", "metrics": {"elapsed_time": 1.5, "records_accessed": 10, "records_used": 5, "disk_ios": 2, "message_count": 0, "message_bytes": 0}, "category": "feather", "confidence": 0.9, "optimizer_cost": 31.5, "generation": 7, "shard": "1", "fallback_shard": "0", "model_kind": "optcost"},
    {"sql": "SELEC", "shard": "0", "error": {"code": "parse_error", "message": "unexpected \"SELEC\""}}
  ]
}`

// TestPredictGoldensMatchEncodingJSON: the captured bodies decode through
// Client.Predict to exactly what json.Unmarshal makes of them — as does a
// body only encoding/json can take (an unknown field, a null, raw UTF-8).
func TestPredictGoldensMatchEncodingJSON(t *testing.T) {
	oddJSON := `{"version":"v1","took_ms":3,"model":null,"results":[{"sql":"café","category":null,"Confidence":0.5}]}`
	for name, body := range map[string]string{"pre-zoo": preZooPredictJSON, "zoo": zooPredictJSON, "encoding/json's": oddJSON} {
		t.Run(name, func(t *testing.T) {
			var want api.PredictResponse
			if err := json.Unmarshal([]byte(body), &want); err != nil {
				t.Fatal(err)
			}
			sqls := make([]string, len(want.Results))
			for i, r := range want.Results {
				sqls[i] = r.SQL
			}
			got, err := New(serveBody(t, body).URL, fastOpts()).Predict(context.Background(), sqls...)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !reflect.DeepEqual(*got, want) {
				t.Errorf("%s: Predict decoded %+v, encoding/json %+v", name, *got, want)
			}
			if name == "zoo" && (got.Model.Generation != 7 || got.Model.Shards != 2 || len(got.Results) != 2 ||
				got.Results[0].Metrics.ElapsedSec != 1.5 || got.Results[0].FallbackShard != "0" || got.Results[1].Error.Code != "parse_error") {
				t.Errorf("zoo-era body lost a core field: %+v", *got)
			}
		})
	}
	_, err := New(serveBody(t, `{"version":"v1","results":[{"generation":1.5}]}`).URL, fastOpts()).Predict(context.Background(), "x")
	want := json.Unmarshal([]byte(`{"version":"v1","results":[{"generation":1.5}]}`), new(api.PredictResponse))
	if err == nil || err.Error() != want.Error() {
		t.Errorf("malformed body: error %v, encoding/json %v", err, want)
	}
}

// daemonBody is what a stock daemon writes for n hot queries — the bytes of
// the daemon's own encoder, results served from filled fragments — and the
// SQL it answers.
func daemonBody(tb testing.TB, n int) (sqls []string, body []byte) {
	tb.Helper()
	resp := api.PredictResponse{Version: api.Version,
		Model:   &api.ModelInfo{Generation: 4, TrainedOn: 800, Features: "query-plan", Swaps: 3, WindowSize: 800, ModelKind: "kcca", Index: &api.IndexInfo{Kind: "kdtree", Metric: "euclidean", Points: 800, Nodes: 1599, MinPoints: 64}},
		Results: make([]api.QueryResult, n)}
	rng := rand.New(rand.NewSource(22))
	frags := make([]*api.Fragment, n)
	for i := range resp.Results {
		sql := fmt.Sprintf("SELECT COUNT(*), SUM(ss_net_paid) FROM store_sales, item, date_dim\n"+
			"WHERE ss_item_sk = i_item_sk AND ss_sold_date_sk = d_date_sk AND i_category = 'v%d' "+
			"AND d_year >= %d AND ss_quantity < %d AND i_brand <> \"b&b\" GROUP BY i_brand ORDER BY 2 DESC LIMIT 100",
			i%7, 1998+i%5, 10+i)
		sqls = append(sqls, sql)
		resp.Results[i] = api.QueryResult{
			SQL: sql,
			Metrics: &api.Metrics{ElapsedSec: rng.ExpFloat64() * 10, RecordsAccessed: rng.ExpFloat64() * 1e7, RecordsUsed: rng.ExpFloat64() * 1e5,
				DiskIOs: rng.ExpFloat64() * 1e3, MessageCount: rng.ExpFloat64() * 100, MessageBytes: rng.ExpFloat64() * 1e6},
			Category: "golf_ball", Confidence: rng.Float64(), OptimizerCost: rng.ExpFloat64() * 1e5,
			Generation: 4, ModelKind: "kcca",
		}
		frags[i] = new(api.Fragment)
	}
	for pass := 0; pass < 2; pass++ {
		var err error
		if body, _, err = api.AppendPredictResponse(nil, &resp, frags); err != nil {
			tb.Fatal(err)
		}
	}
	return sqls, body
}

// canned is a transport that answers every request with one body and no
// network, so that what a Predict allocates is the client's own doing.
type canned []byte

func (body canned) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		io.Copy(io.Discard, req.Body)
		req.Body.Close()
	}
	return &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, Body: io.NopCloser(bytes.NewReader(body)), Request: req}, nil
}

// TestPredictDecodeAllocs pins what a result costs the caller: the 63
// results between a 1-query and a 64-query Predict add at most one
// allocation each (none, when the daemon echoes the SQL it was sent).
func TestPredictDecodeAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	perCall := func(n int) float64 {
		sqls, body := daemonBody(t, n)
		c := New("http://canned", &Options{HTTPClient: &http.Client{Transport: canned(body)}})
		return testing.AllocsPerRun(50, func() {
			resp, err := c.Predict(context.Background(), sqls...)
			if err != nil || len(resp.Results) != n || resp.Results[n-1].SQL != sqls[n-1] {
				t.Fatalf("n=%d: %v %+v", n, err, resp)
			}
		})
	}
	one, batch := perCall(1), perCall(64)
	t.Logf("Predict allocates %.0f for 1 query, %.0f for 64: %.2f per result", one, batch, (batch-one)/63)
	if batch-one > 63 {
		t.Errorf("63 more results cost %.0f allocations, budget 1 each", batch-one)
	}
}

// TestPredictResultsShareNoMetrics: the Metrics of one response come from
// one slab; each result's is its own element of it.
func TestPredictResultsShareNoMetrics(t *testing.T) {
	sqls, body := daemonBody(t, 64)
	var want api.PredictResponse
	if err := json.Unmarshal(body, &want); err != nil {
		t.Fatal(err)
	}
	resp, err := New(serveBody(t, string(body)).URL, fastOpts()).Predict(context.Background(), sqls...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*resp, want) {
		t.Fatalf("decoded %+v, encoding/json %+v", *resp, want)
	}
	for i := range resp.Results {
		resp.Results[i].Metrics.ElapsedSec = float64(-i)
	}
	for i, r := range resp.Results {
		if r.Metrics.ElapsedSec != float64(-i) || r.Metrics.MessageBytes != want.Results[i].Metrics.MessageBytes {
			t.Fatalf("result %d shares its metrics: %+v", i, r.Metrics)
		}
	}
}

// TestBatcherSlotsAreTheCallersOwn: each caller of a coalesced batch gets
// its own result, whose Metrics nobody else's write reaches.
func TestBatcherSlotsAreTheCallersOwn(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(predictEcho))
	defer ts.Close()
	b := NewBatcher(New(ts.URL, fastOpts()), 20*time.Millisecond, 64)
	defer b.Close()
	const n = 16
	got := make([]*api.QueryResult, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := b.Predict(context.Background(), "SELECT "+strings.Repeat("x", i))
			if err != nil {
				t.Error(err)
				return
			}
			res.Metrics.RecordsUsed = float64(i) // the caller's to scribble on
			got[i] = res
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	seen := map[*api.Metrics]bool{}
	for i, res := range got {
		if want := "SELECT " + strings.Repeat("x", i); res.SQL != want || res.Metrics.ElapsedSec != float64(len(want)) || res.Metrics.RecordsUsed != float64(i) || seen[res.Metrics] {
			t.Fatalf("caller %d: %+v %+v", i, res, res.Metrics)
		}
		seen[res.Metrics] = true
	}
}

// TestResponseOverLimit: a 2xx body over 4 MiB — by one byte, or by enough
// that much of it is still unread when the limit trips — is refused by
// name, not decoded as far as it was read, and read to its end so that the
// next request travels on the same connection.
func TestResponseOverLimit(t *testing.T) {
	var body atomic.Pointer[[]byte]
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if b := body.Load(); b != nil {
			w.Write(*b)
			return
		}
		predictEcho(w, r)
	}))
	var conns atomic.Int64
	ts.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()
	padded := func(n int) *[]byte {
		b := bytes.Repeat([]byte(" "), n)
		copy(b, `{"version":"v1","results":[]}`)
		return &b
	}

	c := New(ts.URL, fastOpts())
	for _, n := range []int{maxResponse + 1, maxResponse + 1<<20} {
		body.Store(padded(n))
		_, err := c.Predict(context.Background(), "SELECT 1")
		if err == nil || err.Error() != "qpredictclient: response exceeds 4 MiB" {
			t.Fatalf("%d-byte body: %v", n, err)
		}
		body.Store(nil)
		if _, err := c.Predict(context.Background(), "SELECT 1"); err != nil {
			t.Fatal(err)
		}
	}
	if c.Retries() != 0 {
		t.Errorf("an oversized response was retried %d times", c.Retries())
	}
	if n := conns.Load(); n != 1 {
		t.Errorf("%d connections for four requests: an oversized body was not drained", n)
	}

	// At the limit exactly, the body is decoded.
	body.Store(padded(maxResponse))
	if resp, err := c.Predict(context.Background(), "SELECT 1"); err != nil || resp.Version != api.Version {
		t.Fatalf("4 MiB body: %v", err)
	}
}

// BenchmarkClientPredict64 and BenchmarkClientPredict1 are whole Predict
// calls over loopback HTTP against a server replaying a daemon-encoded body:
// encode, round trip, decode.
func BenchmarkClientPredict64(b *testing.B) { benchClientPredict(b, 64) }
func BenchmarkClientPredict1(b *testing.B)  { benchClientPredict(b, 1) }

func benchClientPredict(b *testing.B, n int) {
	sqls, body := daemonBody(b, n)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	}))
	defer ts.Close()
	c := New(ts.URL, nil)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := c.Predict(ctx, sqls...)
		if err != nil || len(resp.Results) != n {
			b.Fatal(err, len(resp.Results))
		}
	}
}
