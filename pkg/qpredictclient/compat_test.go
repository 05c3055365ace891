package qpredictclient

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/api"
)

// Wire-format compatibility: the client must decode pre-zoo daemons (no
// model_kind, no champion/challenger blocks), daemons that ran the model
// zoo (both blocks, which the client now ignores) and current ones. The
// fixtures below are captured response bodies, not round-tripped structs —
// they pin the actual bytes an old daemon sends.

// preZooModelJSON is a /v1/model body from a daemon predating the model
// zoo: no model_kind, champion, or challengers keys.
const preZooModelJSON = `{
  "version": "v1",
  "model": {
    "generation": 3,
    "trained_on": 500,
    "features": "plan+text",
    "two_step": true,
    "swaps": 2,
    "window_size": 480,
    "index": {"kind": "kdtree", "metric": "elapsed_time", "points": 500, "nodes": 999, "min_points": 64}
  }
}`

// preZooPredictJSON is a /v1/predict body from the same era: results carry
// no model_kind.
const preZooPredictJSON = `{
  "version": "v1",
  "model": {"generation": 3, "trained_on": 500, "features": "plan+text", "two_step": true, "swaps": 2},
  "results": [
    {"sql": "SELECT 1", "metrics": {"elapsed_time": 1.5, "records_accessed": 10, "records_used": 5, "disk_ios": 2, "message_count": 0, "message_bytes": 0}, "category": "feather", "confidence": 0.9, "generation": 3}
  ]
}`

// zooModelJSON is a /v1/model body from a daemon that ran the model zoo,
// with the zoo blocks populated.
const zooModelJSON = `{
  "version": "v1",
  "model": {
    "generation": 7,
    "trained_on": 500,
    "features": "plan+text",
    "two_step": true,
    "swaps": 6,
    "model_kind": "kcca",
    "champion": {"kind": "kcca", "promotions": 1, "since_generation": 5},
    "challengers": [
      {"kind": "kcca", "champion": true},
      {"kind": "optcost", "streak": 2, "categories": [
        {"category": "feather", "samples": 40, "mean_rel_err": 0.31, "within_20": 0.4}
      ]}
    ]
  }
}`

func serveBody(t *testing.T, body string) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(body))
	}))
	t.Cleanup(ts.Close)
	return ts
}

func TestDecodePreZooModel(t *testing.T) {
	ts := serveBody(t, preZooModelJSON)
	info, err := New(ts.URL, fastOpts()).Model(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if info.Generation != 3 || info.TrainedOn != 500 || !info.TwoStep {
		t.Fatalf("core fields lost decoding a pre-zoo body: %+v", info)
	}
	if info.ModelKind != "" {
		t.Fatalf("model_kind invented from a pre-zoo body: %q", info.ModelKind)
	}
	if info.Index == nil || info.Index.Points != 500 {
		t.Fatalf("index info lost: %+v", info.Index)
	}
}

func TestDecodePreZooPredict(t *testing.T) {
	ts := serveBody(t, preZooPredictJSON)
	res, err := New(ts.URL, fastOpts()).PredictOne(context.Background(), "SELECT 1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics == nil || res.Metrics.ElapsedSec != 1.5 || res.Category != "feather" {
		t.Fatalf("core fields lost decoding a pre-zoo result: %+v", res)
	}
	if res.ModelKind != "" {
		t.Fatalf("model_kind invented from a pre-zoo result: %q", res.ModelKind)
	}
}

func TestDecodeZooModel(t *testing.T) {
	ts := serveBody(t, zooModelJSON)
	info, err := New(ts.URL, fastOpts()).Model(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if info.Generation != 7 || info.TrainedOn != 500 || info.Features != "plan+text" || !info.TwoStep || info.Swaps != 6 || info.ModelKind != "kcca" {
		t.Fatalf("core fields lost decoding a zoo-era body: %+v", info)
	}
	// The champion and challengers blocks are ignored: nothing of them
	// survives a round trip through the current structs.
	b, err := json.Marshal(info)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"champion", "challengers", "optcost"} {
		if bytes.Contains(b, []byte(`"`+key)) {
			t.Fatalf("zoo-era %q kept: %s", key, b)
		}
	}
}

// TestZooFieldsOmittedWhenEmpty: a server encoding a ModelInfo without a
// model kind emits neither model_kind nor either zoo key — old clients
// parsing with strict schemas keep working.
func TestZooFieldsOmittedWhenEmpty(t *testing.T) {
	b, err := json.Marshal(api.ModelInfo{Generation: 1, TrainedOn: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"model_kind", "champion", "challengers"} {
		if bytes.Contains(b, []byte(`"`+key+`"`)) {
			t.Fatalf("empty zoo field %q serialized: %s", key, b)
		}
	}
}
