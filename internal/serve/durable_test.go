package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/optimizer"
	"repro/internal/sqlparse"
	"repro/internal/wal"
)

// durableConfig wires a cold sliding server to a durable store in dir.
func durableConfig(t testing.TB, dir string) Config {
	t.Helper()
	fixture(t)
	st, err := wal.OpenStore(wal.StoreOptions{
		Dir: dir, Policy: wal.SyncNone, SnapshotEvery: 100,
		Plan: PlannerFunc(catalog.TPCDS(1), fixDataSeed, exec.Research4()),
	})
	if err != nil {
		t.Fatal(err)
	}
	sliding, err := core.NewSliding(40, 10, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Sliding:  sliding,
		Store:    st,
		Schema:   catalog.TPCDS(1),
		Machine:  exec.Research4(),
		DataSeed: fixDataSeed,
		Timeout:  10 * time.Second,
	}
}

// modelInfoOf fetches GET /v1/model, or nil while the server is still cold.
func modelInfoOf(t testing.TB, url string) *api.ModelInfo {
	t.Helper()
	resp, err := http.Get(url + "/v1/model")
	if err != nil {
		t.Fatal(err)
	}
	raw := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	var body struct {
		Model *api.ModelInfo `json:"model"`
	}
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatalf("decoding %s: %v", raw, err)
	}
	return body.Model
}

// TestWarmRestartByteIdentical is the serve-level durability contract: a
// daemon restarted against its state dir answers its first prediction
// immediately (no boot training, no warm-up observations) with the exact
// bytes — metrics, category, confidence, generation — the pre-restart
// process was serving.
func TestWarmRestartByteIdentical(t *testing.T) {
	pool, _ := fixture(t)
	dir := t.TempDir()

	// First life: boot cold, stream 25 executed queries (retrains at 10
	// and 20), capture a prediction once both swaps landed and all 25 are
	// in the window (the model block reports window_size, so a capture
	// between the 20th and the 25th would not be what the drain persists).
	s1, err := New(durableConfig(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	var obsReq api.ObserveRequest
	for _, q := range pool.Queries[:25] {
		obsReq.Observations = append(obsReq.Observations, api.Observation{SQL: q.SQL, Metrics: api.MetricsFrom(q.Metrics)})
	}
	if resp, raw := postJSON(t, ts1.URL+"/v1/observe", obsReq); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("observe: %d %s", resp.StatusCode, raw)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		if info := modelInfoOf(t, ts1.URL); info != nil && info.Generation >= 2 && info.WindowSize == 25 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("retrains never landed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	probe := api.PredictRequest{SQL: pool.Queries[150].SQL}
	respBefore, rawBefore := postJSON(t, ts1.URL+"/v1/predict", probe)
	if respBefore.StatusCode != http.StatusOK {
		t.Fatalf("predict before restart: %d %s", respBefore.StatusCode, rawBefore)
	}
	ts1.Close()
	s1.Close() // clean shutdown: drains the observe queue, final snapshot

	// Second life: recover from the state dir and serve at once.
	st2, err := wal.OpenStore(wal.StoreOptions{
		Dir: dir, Policy: wal.SyncNone, SnapshotEvery: 100,
		Plan: PlannerFunc(catalog.TPCDS(1), fixDataSeed, exec.Research4()),
	})
	if err != nil {
		t.Fatal(err)
	}
	sliding2, gen, err := st2.Recover(40, 10, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	s2, err := New(Config{
		Sliding: sliding2, Store: st2, BootGen: gen,
		Schema: catalog.TPCDS(1), Machine: exec.Research4(),
		DataSeed: fixDataSeed, Timeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()

	respAfter, rawAfter := postJSON(t, ts2.URL+"/v1/predict", probe)
	if respAfter.StatusCode != http.StatusOK {
		t.Fatalf("predict after restart: %d %s", respAfter.StatusCode, rawAfter)
	}
	if string(rawAfter) != string(rawBefore) {
		t.Fatalf("prediction changed across restart:\nbefore %s\nafter  %s", rawBefore, rawAfter)
	}

	// The restarted daemon reports how it came back on GET /v1/model.
	info := modelInfoOf(t, ts2.URL)
	if info == nil {
		t.Fatal("restarted server is not ready")
	}
	if info.Recovery == nil || !info.Recovery.Recovered {
		t.Fatalf("no recovery info after warm restart: %+v", info)
	}
	if info.Recovery.Replayed != 0 {
		t.Errorf("clean shutdown replayed %d records, want 0 (final snapshot)", info.Recovery.Replayed)
	}
	if info.Generation != 2 {
		t.Errorf("generation %d after restart, want 2 (continuity)", info.Generation)
	}

	// GET /v1/shards carries the one shard's own recovery block, which is
	// what /v1/model aggregates.
	resp, err := http.Get(ts2.URL + "/v1/shards")
	if err != nil {
		t.Fatal(err)
	}
	var shards api.ShardsResponse
	if raw := readAll(t, resp); json.Unmarshal(raw, &shards) != nil || len(shards.Shards) != 1 {
		t.Fatalf("GET /v1/shards: %s", raw)
	}
	got, want := shards.Shards[0].Recovery, info.Recovery
	if got == nil || got.Recovered != want.Recovered || got.Replayed != want.Replayed || got.SnapshotSeq != want.SnapshotSeq {
		t.Errorf("shard recovery %+v, /v1/model's %+v", got, want)
	}
	if want.SnapshotSeq == 0 {
		t.Error("recovered from a snapshot at sequence 0")
	}
}

// TestPlannerErrorsPassThrough: PlannerFunc tags which stage failed, but
// its errors read, and unwrap to, exactly what sqlparse and the optimizer
// said, so WAL-replay diagnostics do not change.
func TestPlannerErrorsPassThrough(t *testing.T) {
	schema := catalog.TPCDS(1)
	plan := PlannerFunc(schema, fixDataSeed, exec.Research4())

	const unparsable = "SELEC nonsense"
	_, parseErr := sqlparse.Parse(unparsable)
	const unplannable = "SELECT COUNT(*) FROM no_such_table"
	ast, err := sqlparse.Parse(unplannable)
	if err != nil {
		t.Fatal(err)
	}
	_, planErr := optimizer.NewPlanner(schema, fixDataSeed, optimizer.DefaultConfig(exec.Research4().Processors)).Plan(ast)

	for _, tc := range []struct {
		sql  string
		want error
		code string
	}{
		{unparsable, parseErr, api.CodeParse},
		{unplannable, planErr, api.CodePlan},
	} {
		_, err := plan(tc.sql)
		if err == nil || tc.want == nil {
			t.Fatalf("%q: planner error %v, reference error %v", tc.sql, err, tc.want)
		}
		if err.Error() != tc.want.Error() {
			t.Errorf("%q: Error() = %q, want %q", tc.sql, err, tc.want)
		}
		if inner := errors.Unwrap(err); inner == nil || inner.Error() != tc.want.Error() {
			t.Errorf("%q: Unwrap = %v, want %v", tc.sql, inner, tc.want)
		}
		if got := planError(err); got.Code != tc.code || got.Message != tc.want.Error() {
			t.Errorf("%q: reported as %+v, want code %s", tc.sql, got, tc.code)
		}
	}
}
