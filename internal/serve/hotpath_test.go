package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/testutil"
)

// newServerPair returns the same fixture server twice: once with the plan
// cache enabled (default capacity) and once with it disabled (every
// request re-plans).
func newServerPair(t *testing.T) (cached, uncached *Server) {
	cfg := baseConfig(t)
	cfg.Plans = NewPlanner(catalog.TPCDS(1), fixDataSeed, exec.Research4(), 0)
	var err error
	if cached, err = New(cfg); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cached.Close)

	cfg = baseConfig(t)
	cfg.Plans = NewPlanner(catalog.TPCDS(1), fixDataSeed, exec.Research4(), -1)
	if uncached, err = New(cfg); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(uncached.Close)
	return cached, uncached
}

// TestServePlanCacheEquivalence asserts the cache is invisible on the
// wire: for the same requests — including repeats, so the cached server
// answers from hits — the cached and uncached servers produce byte-
// identical response bodies, for successes, parse errors, and plan
// errors alike. (Observe-path equivalence across retrains is proven at
// the core level by TestPlanCacheObserveEquivalence.)
func TestServePlanCacheEquivalence(t *testing.T) {
	pool, _ := fixture(t)
	cached, uncached := newServerPair(t)
	tsC := httptest.NewServer(cached.Handler())
	defer tsC.Close()
	tsU := httptest.NewServer(uncached.Handler())
	defer tsU.Close()

	requests := []api.PredictRequest{
		{SQL: pool.Queries[130].SQL},
		{Queries: []api.QueryInput{{SQL: pool.Queries[131].SQL}, {SQL: pool.Queries[132].SQL}}},
		{SQL: "SELECT FROM WHERE"},                           // parse error
		{SQL: "SELECT COUNT(*) FROM no_such_table_anywhere"}, // plan error
		{SQL: pool.Queries[133].SQL, Queries: []api.QueryInput{{SQL: "ALSO NOT SQL"}}},
	}
	for round := 0; round < 3; round++ { // round 2+ hits the cache
		for i, req := range requests {
			respC, rawC := postJSON(t, tsC.URL+"/v1/predict", req)
			respU, rawU := postJSON(t, tsU.URL+"/v1/predict", req)
			if respC.StatusCode != respU.StatusCode {
				t.Fatalf("round %d req %d: status %d (cached) vs %d (uncached)", round, i, respC.StatusCode, respU.StatusCode)
			}
			if string(rawC) != string(rawU) {
				t.Fatalf("round %d req %d: body diverged\ncached:   %s\nuncached: %s", round, i, rawC, rawU)
			}
		}
	}
	if cached.plans.Len() == 0 {
		t.Fatal("cached server's plan cache stayed empty")
	}
	if uncached.plans.Len() != 0 {
		t.Fatal("uncached server's plan cache has entries")
	}
}

// TestPredictHandlerAllocs is the AllocsPerOp regression guard for the
// serving hot path. With the plan cache and the prediction cache warm a
// single-query predict allocates 36 objects (net/http, the model block's
// json.Marshal, the decoded request, the router's and Predict's slabs; a
// plan-cache hit allocates nothing, and the reply's slices are pooled);
// re-planning the query adds a plan-cache miss, at most planMissAllocBound
// more; and each further query of a batch costs 1.0, its decoded SQL string
// — the api codec decodes a string in one allocation and encodes a result
// in none. The per-query bound leaves room for a pool a collection empties
// mid-measurement. The numeric bounds are waived under -race.
func TestPredictHandlerAllocs(t *testing.T) {
	pool, _ := fixture(t)
	cached, uncached := newServerPair(t)
	single := `{"queries":[{"sql":` + jsonQuote(pool.Queries[134].SQL) + `}]}`
	var sb strings.Builder
	for i := 0; i < 64; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(`{"sql":` + jsonQuote(pool.Queries[i].SQL) + `}`)
	}
	batch := `{"queries":[` + sb.String() + `]}`

	measure := func(s *Server, body string) float64 {
		h := s.Handler()
		rec := httptest.NewRecorder()
		do := func() {
			req := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
			rec.Body.Reset()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
			}
		}
		for i := 0; i < 5; i++ { // warm the cache, pools, and scratch buffers
			do()
		}
		return testing.AllocsPerRun(50, do)
	}

	cachedAllocs := measure(cached, single)
	uncachedAllocs := measure(uncached, single)
	batchAllocs := measure(cached, batch)
	t.Logf("predict handler allocs/op: cached %.1f, uncached %.1f, cached 64-query batch %.1f", cachedAllocs, uncachedAllocs, batchAllocs)
	if testutil.RaceEnabled {
		t.Skip("race detector enabled; skipping alloc bound")
	}
	if cachedAllocs > 40 {
		t.Errorf("cached predict path allocates %.1f/op, bound 40", cachedAllocs)
	}
	if uncachedAllocs > cachedAllocs+planMissAllocBound {
		t.Errorf("re-planning adds %.1f allocs/op to the cached path's %.1f, more than a plan-cache miss's bound of %d",
			uncachedAllocs-cachedAllocs, cachedAllocs, planMissAllocBound)
	}
	if perQuery := (batchAllocs - cachedAllocs) / 63; perQuery > 1.1 {
		t.Errorf("a 64-query batch allocates %.1f/op, %.2f per additional query; bound 1.1", batchAllocs, perQuery)
	}
}

// jsonQuote is a minimal JSON string literal encoder for test bodies
// (fixture SQL is plain ASCII without quotes or backslashes).
func jsonQuote(s string) string {
	if strings.ContainsAny(s, `"\`+"\n\t") {
		panic("jsonQuote: fixture SQL needs real escaping")
	}
	return `"` + s + `"`
}
