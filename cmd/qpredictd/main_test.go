package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/catalog"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/wal"
	"repro/internal/workload"
	"repro/pkg/qpredict"
)

// bootArgs resolves a command line the way main does and boots the service
// it describes, returning the service and everything it logged.
func bootArgs(t *testing.T, args ...string) (*serve.Server, string, error) {
	t.Helper()
	var log bytes.Buffer
	fs := flag.NewFlagSet("qpredictd", flag.ContinueOnError)
	fs.SetOutput(&log)
	opts, _, err := loadOptions(fs, args, &log)
	if err != nil {
		return nil, log.String(), err
	}
	svc, _, err := boot(opts, &log)
	return svc, log.String(), err
}

// call runs one request through a service's handler in process.
func call(t *testing.T, svc *serve.Server, method, path string, body any) (int, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(raw)))
	return rec.Code, rec.Body.Bytes()
}

// generationOf reads the served generation off GET /v1/model.
func generationOf(t *testing.T, svc *serve.Server) int64 {
	t.Helper()
	code, raw := call(t, svc, http.MethodGet, "/v1/model", nil)
	var body struct {
		Model api.ModelInfo `json:"model"`
	}
	if err := json.Unmarshal(raw, &body); code != http.StatusOK || err != nil {
		t.Fatalf("GET /v1/model: %d %s (%v)", code, raw, err)
	}
	return body.Model.Generation
}

// TestOneShardStateDirAcrossBoots: a state directory written by the stock
// daemon holds one partition, and every way of asking for one shard opens
// it — no -shards, -shards 0, -shards 1 under either partitioner, and the
// model zoo (which used to force -shards 1 behind the operator's back) —
// warm, at the generation it held, answering a probe with the same bytes. A
// real change of layout is still refused.
func TestOneShardStateDirAcrossBoots(t *testing.T) {
	dir := t.TempDir()
	base := []string{"-train", "60", "-capacity", "20", "-retrain-every", "5", "-snapshot-every", "4", "-state-dir", dir}
	def := qpredict.Default()
	pool, err := dataset.Generate(dataset.GenConfig{
		Seed: def.Train.Seed, DataSeed: def.Train.DataSeed, Machine: exec.Research4(),
		Schema: catalog.TPCDS(1), Templates: workload.TPCDSTemplates(), Count: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	probe := api.PredictRequest{SQL: "SELECT COUNT(*) FROM store_sales"}
	// results cuts a predict body down to its results: the zoo adds champion
	// state to the model block beside them.
	results := func(raw []byte) string {
		var body struct {
			Results json.RawMessage `json:"results"`
		}
		if err := json.Unmarshal(raw, &body); err != nil || len(body.Results) == 0 {
			t.Fatalf("predict body %s: %v", raw, err)
		}
		return string(body.Results)
	}

	// First life: the stock daemon trains, takes twelve observations — two
	// retrains, so generation 3 — and drains.
	svc, log, err := bootArgs(t, base...)
	if err != nil {
		t.Fatalf("first boot: %v\n%s", err, log)
	}
	var obs api.ObserveRequest
	for _, q := range pool.Queries[:12] {
		obs.Observations = append(obs.Observations, api.Observation{SQL: q.SQL, Metrics: api.MetricsFrom(q.Metrics)})
	}
	if code, raw := call(t, svc, http.MethodPost, "/v1/observe", obs); code != http.StatusAccepted {
		t.Fatalf("observe: %d %s", code, raw)
	}
	for deadline := time.Now().Add(60 * time.Second); generationOf(t, svc) != 3; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("generation %d after two retrains' worth of observations, want 3", generationOf(t, svc))
		}
	}
	code, want := call(t, svc, http.MethodPost, "/v1/predict", probe)
	if code != http.StatusOK {
		t.Fatalf("probe: %d %s", code, want)
	}
	svc.Close()

	for _, tc := range []struct {
		name string
		args []string
		zoo  bool
	}{
		{name: "no -shards"},
		{name: "-shards 0", args: []string{"-shards", "0"}},
		{name: "-shards 1", args: []string{"-shards", "1"}},
		{name: "-shards 1 -partitioner category", args: []string{"-shards", "1", "-partitioner", "category"}},
		{name: "-challengers optcost", args: []string{"-challengers", "optcost"}, zoo: true},
		{name: "the stock daemon again", args: nil},
	} {
		svc, log, err := bootArgs(t, append(base[:len(base):len(base)], tc.args...)...)
		if err != nil {
			t.Fatalf("%s: %v\n%s", tc.name, err, log)
		}
		if !strings.Contains(log, "skipping boot training") {
			t.Errorf("%s: booted cold from a warm state dir:\n%s", tc.name, log)
		}
		if gen := generationOf(t, svc); gen != 3 {
			t.Errorf("%s: serves generation %d, the directory held 3", tc.name, gen)
		}
		code, got := call(t, svc, http.MethodPost, "/v1/predict", probe)
		if code != http.StatusOK || results(got) != results(want) || (!tc.zoo && !bytes.Equal(got, want)) {
			t.Errorf("%s: probe answered %d\n got %s\nwant %s", tc.name, code, got, want)
		}
		svc.Close()
	}

	if _, _, err := bootArgs(t, append(base[:len(base):len(base)], "-shards", "2")...); err == nil || !strings.Contains(err.Error(), "was written under") {
		t.Fatalf("-shards 2 on a one-shard state dir: %v", err)
	}
}

// TestPlanTreesKeptOnlyUnderZoo: the stock daemon's plan cache hands out
// cost-only plans — no AST, no plan tree — at the cost the uncached pipeline
// computes, bit for bit, on a miss and on a hit. Under the model zoo, which
// may run the planstruct model (the one reader of plan trees), it keeps the
// trees, whichever kinds the command line names.
func TestPlanTreesKeptOnlyUnderZoo(t *testing.T) {
	schema, machine := catalog.TPCDS(1), exec.Research4()
	const sql = "SELECT COUNT(*) FROM store_sales, item WHERE ss_item_sk = i_item_sk AND i_category = 'v3'"
	want, err := serve.PlannerFunc(schema, qpredict.Default().Train.DataSeed, machine)(sql)
	if err != nil {
		t.Fatal(err)
	}
	hits := obs.GetCounter("core.plancache.hits")
	for _, tc := range []struct {
		name  string
		args  []string
		trees bool
	}{
		{"stock", nil, false},
		{"planstruct challenger", []string{"-challengers", "planstruct"}, true},
		{"optcost challenger", []string{"-challengers", "optcost"}, true},
	} {
		opts, _, err := loadOptions(flag.NewFlagSet("qpredictd", flag.ContinueOnError), tc.args, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		plans := newPlanner(opts, schema, machine)
		before := hits.Value()
		for _, lookup := range []string{"miss", "hit"} {
			q, err := plans.Plan(sql)
			if err != nil {
				t.Fatal(err)
			}
			if q.AST != nil {
				t.Errorf("%s: the %s kept the AST", tc.name, lookup)
			}
			if got := q.Plan.Root != nil; got != tc.trees {
				t.Errorf("%s: the %s carries a plan tree: %v, want %v", tc.name, lookup, got, tc.trees)
			}
			if math.Float64bits(q.Plan.Cost) != math.Float64bits(want.Plan.Cost) {
				t.Errorf("%s: the %s costs %v, the uncached pipeline %v", tc.name, lookup, q.Plan.Cost, want.Plan.Cost)
			}
		}
		if n := hits.Value() - before; n != 1 {
			t.Errorf("%s: %d plan-cache hits, want 1", tc.name, n)
		}
	}
}

// TestRecordedPlanStructChampionRetrains: a state directory that recorded
// planstruct as its champion keeps serving planstruct when the daemon
// restarts with a zoo that does not name it. The champion trains from the
// window the restarted daemon plans, so that window must carry plan trees;
// without them every planstruct training fails and KCCA answers under a
// planstruct champion.
func TestRecordedPlanStructChampionRetrains(t *testing.T) {
	dir := t.TempDir()
	base := []string{"-train", "60", "-capacity", "20", "-retrain-every", "5", "-snapshot-every", "4", "-state-dir", dir}
	def := qpredict.Default()
	pool, err := dataset.Generate(dataset.GenConfig{
		Seed: def.Train.Seed, DataSeed: def.Train.DataSeed, Machine: exec.Research4(),
		Schema: catalog.TPCDS(1), Templates: workload.TPCDSTemplates(), Count: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	observe := func(svc *serve.Server, qs []*dataset.Query) {
		t.Helper()
		var req api.ObserveRequest
		for _, q := range qs {
			req.Observations = append(req.Observations, api.Observation{SQL: q.SQL, Metrics: api.MetricsFrom(q.Metrics)})
		}
		if code, raw := call(t, svc, http.MethodPost, "/v1/observe", req); code != http.StatusAccepted {
			t.Fatalf("observe: %d %s", code, raw)
		}
	}

	// First life: a zoo with planstruct fills the window and drains; then
	// the shard's state records planstruct as champion, as a promotion does.
	svc, log, err := bootArgs(t, append(base, "-challengers", "planstruct")...)
	if err != nil {
		t.Fatalf("first boot: %v\n%s", err, log)
	}
	observe(svc, pool.Queries[:12])
	for deadline := time.Now().Add(60 * time.Second); generationOf(t, svc) != 3; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("generation %d after two retrains' worth of observations, want 3", generationOf(t, svc))
		}
	}
	svc.Close()
	st, err := wal.OpenStore(wal.StoreOptions{
		Dir:  filepath.Join(dir, "shard-0"),
		Plan: serve.PlannerFunc(catalog.TPCDS(1), def.Train.DataSeed, exec.Research4()),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SetChampion(model.KindPlanStruct); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(nil, 0); err != nil {
		t.Fatal(err)
	}

	// Second life, under a zoo that names optcost and kcca but not
	// planstruct: the champion trains from the recovered window at boot,
	// and again at the retrain five more observations bring.
	svc, log, err = bootArgs(t, append(base, "-champion", "optcost", "-challengers", "kcca")...)
	if err != nil {
		t.Fatalf("second boot: %v\n%s", err, log)
	}
	defer svc.Close()
	answeredBy := func(when string) {
		t.Helper()
		code, raw := call(t, svc, http.MethodPost, "/v1/predict", api.PredictRequest{SQL: pool.Queries[0].SQL})
		var resp api.PredictResponse
		if err := json.Unmarshal(raw, &resp); code != http.StatusOK || err != nil || len(resp.Results) != 1 {
			t.Fatalf("predict %s: %d %s (%v)", when, code, raw, err)
		}
		if got := resp.Results[0].ModelKind; got != model.KindPlanStruct {
			t.Errorf("%s, %q answered under the recorded planstruct champion", when, got)
		}
	}
	answeredBy("after boot")
	gen := generationOf(t, svc)
	observe(svc, pool.Queries[12:17])
	for deadline := time.Now().Add(60 * time.Second); generationOf(t, svc) == gen; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("still generation %d after a retrain's worth of observations\n%s", gen, log)
		}
	}
	answeredBy("after a retrain")
}

// TestFlagsOverConfigOverDefaults: the three layers of loadOptions. A field
// the file sets beats the default, a flag given on the command line beats
// the file — for every kind of flag value — and a field neither names keeps
// its default.
func TestFlagsOverConfigOverDefaults(t *testing.T) {
	path := t.TempDir() + "/qpredictd.json"
	cfg := `{"serve": {"addr": ":9090", "window": "5ms", "max_batch": 32}, "shards": {"count": 4},
		"champion": {"challengers": ["optcost", "planstruct"]}, "train": {"twostep": true}}`
	if err := os.WriteFile(path, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}
	var note bytes.Buffer
	fs := flag.NewFlagSet("qpredictd", flag.ContinueOnError)
	opts, timings, err := loadOptions(fs, []string{"-window", "1ms", "-config", path, "-shards", "2", "-challengers", "optcost", "-timings"}, &note)
	if err != nil {
		t.Fatal(err)
	}
	def := qpredict.Default()
	if opts.Serve.Window.Std() != time.Millisecond || opts.Shards.Count != 2 || len(opts.Champion.Challengers) != 1 {
		t.Errorf("flags did not beat the file: window %v, shards %d, challengers %v", opts.Serve.Window, opts.Shards.Count, opts.Champion.Challengers)
	}
	if opts.Serve.Addr != ":9090" || opts.Serve.MaxBatch != 32 || !opts.Train.TwoStep {
		t.Errorf("the file did not beat the defaults: %+v %+v", opts.Serve, opts.Train)
	}
	if opts.Serve.QueueCap != def.Serve.QueueCap || opts.Sliding != def.Sliding || !timings {
		t.Errorf("defaults perturbed: %+v %+v timings %v", opts.Serve, opts.Sliding, timings)
	}
	if got := note.String(); !strings.Contains(got, "note: -challengers -shards -window override "+path) {
		t.Errorf("override note %q", got)
	}

	// Without a file the flags land on the defaults, and nothing is noted.
	note.Reset()
	opts, _, err = loadOptions(flag.NewFlagSet("qpredictd", flag.ContinueOnError), []string{"-train", "160", "-timeout", "3s"}, &note)
	if err != nil || opts.Train.Count != 160 || opts.Serve.Timeout.Std() != 3*time.Second || opts.Serve.Addr != def.Serve.Addr || note.Len() != 0 {
		t.Errorf("flags over defaults: %+v, err %v, note %q", opts, err, note.String())
	}
	// What Validate refuses is refused before anything is opened.
	if _, _, err := loadOptions(flag.NewFlagSet("qpredictd", flag.ContinueOnError), []string{"-capacity", "50"}, &note); err == nil {
		t.Error("retrain-every 100 over -capacity 50 was accepted")
	}
}

// TestSlowHeaderIsCutOff: a connection that sends half a request line and
// stops is closed by the server once the header timeout has run, while a
// kept-alive connection beside it — whose requests arrive whole, with idle
// gaps longer than that timeout between them — keeps being served.
func TestSlowHeaderIsCutOff(t *testing.T) {
	const headerTimeout = 150 * time.Millisecond
	srv := newHTTPServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok\n")
	}), headerTimeout)
	if srv.IdleTimeout != idleTimeout || newHTTPServer(nil, readHeaderTimeout).ReadHeaderTimeout != 10*time.Second {
		t.Fatalf("timeouts: idle %v, header %v", srv.IdleTimeout, readHeaderTimeout)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		if err := <-served; err != http.ErrServerClosed {
			t.Errorf("Serve: %v", err)
		}
	}()

	// Timed from before the dial: the server may accept, and start its
	// header timer, before Dial returns here.
	start := time.Now()
	slow, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	if _, err := io.WriteString(slow, "POST /v1/pred"); err != nil {
		t.Fatal(err)
	}
	closed := make(chan time.Duration, 1)
	go func() {
		// The server does not answer a header it never got; it hangs up.
		slow.SetReadDeadline(time.Now().Add(20 * headerTimeout))
		if _, err := io.Copy(io.Discard, slow); err != nil {
			t.Errorf("slow connection was not closed by the server: %v", err)
		}
		closed <- time.Since(start)
	}()

	good, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()
	answers := bufio.NewReader(good)
	for i := 0; i < 3; i++ {
		if i > 0 {
			time.Sleep(headerTimeout * 3 / 2) // idle is not slow
		}
		if _, err := io.WriteString(good, "GET /healthz HTTP/1.1\r\nHost: qpredictd\r\n\r\n"); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		good.SetReadDeadline(time.Now().Add(20 * headerTimeout))
		resp, err := http.ReadResponse(answers, nil)
		if err != nil {
			t.Fatalf("request %d on the kept-alive connection: %v", i, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || string(body) != "ok\n" || resp.Close {
			t.Fatalf("request %d: status %d, body %q, close %v", i, resp.StatusCode, body, resp.Close)
		}
	}
	if after := <-closed; after < headerTimeout {
		t.Fatalf("slow connection closed after %v, before the %v header timeout", after, headerTimeout)
	}
}
