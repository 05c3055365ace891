package obs_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func get(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestHandlerEndpoints(t *testing.T) {
	obs.Reset()

	// Exercise one instrument of each kind: the coalescer's queue-depth
	// gauge, predict latency, the simulator's counter, a stage.
	obs.GetGauge("serve.queue.depth").Set(4)
	obs.GetHistogram("core.predict.seconds").Observe(0.002)
	obs.GetCounter("exec.simulate.queries").Add(100)
	obs.GetHistogram("kcca.train.eigen.seconds").Since(time.Now())

	srv := httptest.NewServer(obs.Handler())
	defer srv.Close()

	code, body := get(t, srv, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/metrics is not valid JSON: %v", err)
	}
	if snap.Gauges["serve.queue.depth"] != 4 {
		t.Errorf("queue-depth gauge missing from snapshot: %v", snap.Gauges)
	}
	if snap.Histograms["core.predict.seconds"].Count != 1 {
		t.Error("predict latency histogram missing from snapshot")
	}
	if snap.Counters["exec.simulate.queries"] != 100 {
		t.Error("simulator counter missing from snapshot")
	}

	code, body = get(t, srv, "/timings")
	if code != http.StatusOK || !strings.Contains(body, "kcca.train.eigen") {
		t.Errorf("/timings status %d body %q", code, body)
	}

	code, body = get(t, srv, "/debug/vars")
	if code != http.StatusOK || !strings.Contains(body, `"obs"`) {
		t.Errorf("/debug/vars status %d missing published obs var", code)
	}

	code, _ = get(t, srv, "/debug/pprof/cmdline")
	if code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline status %d", code)
	}
}

func TestServeMetrics(t *testing.T) {
	obs.Reset()
	addr, err := obs.ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("snapshot decode: %v", err)
	}
	if _, ok := snap.Counters["parallel.for.calls"]; !ok {
		t.Errorf("served snapshot lacks the registered counters: %v", snap.Counters)
	}
}
