package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/api"
	"repro/internal/core"
	"repro/pkg/qpredictclient"
)

// TestResponsesCarryContentLength: over a real listener, a 64-query
// predict, an observe and an error response each arrive with a
// Content-Length equal to the body's length and no Transfer-Encoding — a
// batch body beyond net/http's 2 KiB write buffer is sent sized, not
// chunked — and the daemon's own client decodes the 64-query body into
// what encoding/json makes of it.
func TestResponsesCarryContentLength(t *testing.T) {
	pool, _ := fixture(t)
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
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	sized := func(name string, resp *http.Response, err error, status int) []byte {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if resp.StatusCode != status {
			t.Fatalf("%s: status %d, want %d: %s", name, resp.StatusCode, status, body)
		}
		if resp.ContentLength != int64(len(body)) || resp.Header.Get("Content-Length") != strconv.Itoa(len(body)) ||
			len(resp.TransferEncoding) != 0 {
			t.Fatalf("%s: %d-byte body with Content-Length %q (%d) and Transfer-Encoding %q",
				name, len(body), resp.Header.Get("Content-Length"), resp.ContentLength, resp.TransferEncoding)
		}
		return body
	}

	sqls := make([]string, 64)
	for i, q := range pool.Queries[:64] {
		sqls[i] = q.SQL
	}
	resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(api.AppendPredictRequest(nil, sqls)))
	raw := sized("64-query predict", resp, err, http.StatusOK)
	if len(raw) <= 2<<10 {
		t.Fatalf("a 64-query body of %d bytes fits net/http's buffer: it proves nothing", len(raw))
	}
	var want api.PredictResponse
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	got, err := qpredictclient.New(ts.URL, nil).Predict(context.Background(), sqls...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*got, want) {
		t.Fatalf("the client decodes the 64-query body as %+v, encoding/json as %+v", *got, want)
	}

	obs, _ := json.Marshal(api.ObserveRequest{Observations: []api.Observation{
		{SQL: pool.Queries[0].SQL, Metrics: api.MetricsFrom(pool.Queries[0].Metrics)},
	}})
	resp, err = http.Post(ts.URL+"/v1/observe", "application/json", bytes.NewReader(obs))
	sized("observe", resp, err, http.StatusAccepted)

	resp, err = http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader([]byte(`{"queries":`)))
	sized("malformed predict", resp, err, http.StatusBadRequest)
}
