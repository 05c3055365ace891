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

// modelOf reads GET /v1/model.
func modelOf(t *testing.T, svc *serve.Server) api.ModelInfo {
	t.Helper()
	code, raw := call(t, svc, http.MethodGet, "/v1/model", nil)
	var body struct {
		Model api.ModelInfo `json:"model"`
	}
	if err := json.Unmarshal(raw, &body); code != http.StatusOK || err != nil {
		t.Fatalf("GET /v1/model: %d %s (%v)", code, raw, err)
	}
	return body.Model
}

// generationOf reads the served generation off GET /v1/model.
func generationOf(t *testing.T, svc *serve.Server) int64 {
	t.Helper()
	return modelOf(t, svc).Generation
}

// TestOneShardStateDirAcrossBoots: a state directory written by the stock
// daemon holds one partition, and every way of asking for one shard opens
// it — no -shards, -shards 0, -shards 1, and -shards 1 over a copy whose
// manifest names the category partitioner, as a one-shard daemon of that
// era could record it — warm, at the generation it held, answering a probe
// with the same bytes. A real change of layout is still refused.
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
	categoryDir := filepath.Join(t.TempDir(), "state")
	copyDir(t, dir, categoryDir)
	setManifestPartitioner(t, categoryDir, "category")

	for _, tc := range []struct {
		name string
		args []string
	}{
		{name: "no -shards"},
		{name: "-shards 0", args: []string{"-shards", "0"}},
		{name: "-shards 1", args: []string{"-shards", "1"}},
		{name: "-shards 1, manifest naming category", args: []string{"-shards", "1", "-state-dir", categoryDir}},
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
		if code != http.StatusOK || !bytes.Equal(got, want) {
			t.Errorf("%s: probe answered %d\n got %s\nwant %s", tc.name, code, got, want)
		}
		svc.Close()
	}

	if _, _, err := bootArgs(t, append(base[:len(base):len(base)], "-shards", "2")...); err == nil || !strings.Contains(err.Error(), "was written under") {
		t.Fatalf("-shards 2 on a one-shard state dir: %v", err)
	}
}

// TestRestartBeforeFirstRetrain: a daemon that drains after one observation
// leaves a snapshot recording the boot model's generation but no model — the
// window has not retrained yet, and the boot model is not part of the
// sliding state. The restart recovers that window and still serves: the
// shard gets the boot model back at generation 1, ready, answering a probe
// set with the bytes the cold boot answered after the same observation.
func TestRestartBeforeFirstRetrain(t *testing.T) {
	args := []string{"-train", "60", "-capacity", "20", "-retrain-every", "5", "-snapshot-every", "1", "-state-dir", t.TempDir()}
	def := qpredict.Default()
	pool, err := dataset.Generate(dataset.GenConfig{
		Seed: def.Train.Seed, DataSeed: def.Train.DataSeed, Machine: exec.Research4(),
		Schema: catalog.TPCDS(1), Templates: workload.TPCDSTemplates(), Count: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	var probe api.PredictRequest
	for _, q := range pool.Queries[40:48] {
		probe.Queries = append(probe.Queries, api.QueryInput{SQL: q.SQL})
	}

	// Cold boot: train, take one observation, answer the probe, drain.
	svc, log, err := bootArgs(t, args...)
	if err != nil {
		t.Fatalf("cold boot: %v\n%s", err, log)
	}
	q := pool.Queries[0]
	obs := api.ObserveRequest{Observations: []api.Observation{{SQL: q.SQL, Metrics: api.MetricsFrom(q.Metrics)}}}
	if code, raw := call(t, svc, http.MethodPost, "/v1/observe", obs); code != http.StatusAccepted {
		t.Fatalf("observe: %d %s", code, raw)
	}
	for deadline := time.Now().Add(60 * time.Second); modelOf(t, svc).WindowSize != 1; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the observation never reached the window")
		}
	}
	code, want := call(t, svc, http.MethodPost, "/v1/predict", probe)
	if code != http.StatusOK {
		t.Fatalf("cold boot's probe: %d %s", code, want)
	}
	svc.Close()

	svc, log, err = bootArgs(t, args...)
	if err != nil {
		t.Fatalf("restart: %v\n%s", err, log)
	}
	defer svc.Close()
	if !strings.Contains(log, "recovered snapshot") {
		t.Fatalf("the restart recovered no snapshot:\n%s", log)
	}
	if code, raw := call(t, svc, http.MethodGet, "/readyz", nil); code != http.StatusOK {
		t.Fatalf("/readyz after the restart: %d %s\n%s", code, raw, log)
	}
	if gen := generationOf(t, svc); gen != 1 {
		t.Errorf("serves generation %d after the restart, want the boot model's 1", gen)
	}
	code, got := call(t, svc, http.MethodPost, "/v1/predict", probe)
	if code != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("probe after the restart answered %d\n got %s\nwant %s", code, got, want)
	}
}

// TestCategoryStateDirRefused: a directory a multi-shard daemon wrote under
// the category partitioner spread its observations by measured runtime
// class, so replaying its WALs into hash routing would train each shard on
// another shard's traffic; a -shards 2 boot refuses it, while the same
// layout recorded under hash boots.
func TestCategoryStateDirRefused(t *testing.T) {
	for _, part := range []string{"category", "hash"} {
		t.Run(part, func(t *testing.T) {
			dir := t.TempDir()
			m, err := json.Marshal(wal.Manifest{Shards: 2, Partitioner: part, Capacity: 20, RetrainEvery: 5})
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "manifest.json"), m, 0o644); err != nil {
				t.Fatal(err)
			}
			svc, log, err := bootArgs(t, "-train", "60", "-capacity", "20", "-retrain-every", "5", "-shards", "2", "-state-dir", dir)
			if err == nil {
				svc.Close()
			}
			refused := err != nil && strings.Contains(err.Error(), "was written under")
			if refused != (part == "category") {
				t.Fatalf("-shards 2 over a %s manifest: %v\n%s", part, err, log)
			}
		})
	}
}

// TestStockPlannerKeepsNoTrees: the plan cache qpredictd builds hands out
// cost-only plans — no AST, no plan tree — at the cost the uncached
// pipeline computes, bit for bit, on a miss and on a hit.
func TestStockPlannerKeepsNoTrees(t *testing.T) {
	schema, machine := catalog.TPCDS(1), exec.Research4()
	const sql = "SELECT COUNT(*) FROM store_sales, item WHERE ss_item_sk = i_item_sk AND i_category = 'v3'"
	def := qpredict.Default()
	want, err := serve.PlannerFunc(schema, def.Train.DataSeed, machine)(sql)
	if err != nil {
		t.Fatal(err)
	}
	hits := obs.GetCounter("core.plancache.hits")
	plans := serve.NewPlanner(schema, def.Train.DataSeed, machine, def.Serve.PlanCache)
	before := hits.Value()
	for _, lookup := range []string{"miss", "hit"} {
		q, err := plans.Plan(sql)
		if err != nil {
			t.Fatal(err)
		}
		if q.AST != nil || q.Plan.Root != nil {
			t.Errorf("the %s kept the AST (%v) or the plan tree (%v)", lookup, q.AST != nil, q.Plan.Root != nil)
		}
		if math.Float64bits(q.Plan.Cost) != math.Float64bits(want.Plan.Cost) {
			t.Errorf("the %s costs %v, the uncached pipeline %v", lookup, q.Plan.Cost, want.Plan.Cost)
		}
	}
	if n := hits.Value() - before; n != 1 {
		t.Errorf("%d plan-cache hits, want 1", n)
	}
}

// TestZooEraStateDirBootsWarm: testdata/zoo-era is a one-shard state
// directory as a daemon running the model zoo (-challengers planstruct) left
// it when it crashed after 50 observations — a KCCA snapshot, two WAL
// records past it, and the champion.json its promotion of planstruct wrote
// — and testdata/zoo-era-predict.json is what that daemon's build answered
// for eight queries on reopening the directory without the zoo. Today's
// daemon ignores champion.json: every way of asking for one shard — also
// over a copy whose manifest names the category partitioner — opens the
// directory warm, at the recovered generation, and answers the same eight
// queries with the same bytes, every result from the kcca model. The one
// edit to that file since is the model's "index" object, which now describes
// the exact scan that replaced the KD-tree ("min_points":0); every
// prediction byte is as that build wrote it.
func TestZooEraStateDirBootsWarm(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "zoo-era-predict.json"))
	if err != nil {
		t.Fatal(err)
	}
	var golden api.PredictResponse
	if err := json.Unmarshal(want, &golden); err != nil {
		t.Fatal(err)
	}
	if len(golden.Results) != 8 {
		t.Fatalf("golden has %d results, want 8", len(golden.Results))
	}
	for i, r := range golden.Results {
		if r.ModelKind != "kcca" || r.Error != nil {
			t.Errorf("result %d: model_kind %q, error %v", i, r.ModelKind, r.Error)
		}
	}
	var req api.PredictRequest
	for _, r := range golden.Results {
		req.Queries = append(req.Queries, api.QueryInput{SQL: r.SQL})
	}

	for _, tc := range []struct {
		name     string
		args     []string
		manifest string // the partitioner the copy's manifest names, if not as written
	}{
		{name: "no -shards"},
		{name: "-shards 1", args: []string{"-shards", "1"}},
		{name: "-shards 1, manifest naming category", args: []string{"-shards", "1"}, manifest: "category"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "state")
			copyDir(t, filepath.Join("testdata", "zoo-era"), dir)
			if tc.manifest != "" {
				setManifestPartitioner(t, dir, tc.manifest)
			}
			args := append([]string{"-train", "60", "-capacity", "60", "-retrain-every", "20", "-snapshot-every", "16", "-state-dir", dir}, tc.args...)
			svc, log, err := bootArgs(t, args...)
			if err != nil {
				t.Fatalf("boot: %v\n%s", err, log)
			}
			defer svc.Close()
			if !strings.Contains(log, "skipping boot training") || !strings.Contains(log, "replayed 2 records") {
				t.Errorf("the zoo-era directory did not reopen warm from its snapshot and WAL:\n%s", log)
			}
			if gen := generationOf(t, svc); gen != golden.Model.Generation || gen != 4 {
				t.Errorf("serves generation %d, the directory held %d", gen, golden.Model.Generation)
			}
			code, got := call(t, svc, http.MethodPost, "/v1/predict", req)
			if code != http.StatusOK || !bytes.Equal(got, want) {
				t.Fatalf("predict answered %d\n got %s\nwant %s", code, got, want)
			}
		})
	}
}

// copyDir copies the regular files under src to dst, so a test can reopen a
// checked-in state directory without writing to it.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// setManifestPartitioner rewrites the partitioner a state directory's
// manifest records, as a daemon run under that partitioner would have
// written it.
func setManifestPartitioner(t *testing.T, dir, name string) {
	t.Helper()
	path := filepath.Join(dir, "manifest.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m wal.Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	m.Partitioner = name
	if data, err = json.MarshalIndent(m, "", "  "); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestFlagsOverConfigOverDefaults: the three layers of loadOptions. A field
// the file sets beats the default, a flag given on the command line beats
// the file — for every kind of flag value — and a field neither names keeps
// its default.
func TestFlagsOverConfigOverDefaults(t *testing.T) {
	path := t.TempDir() + "/qpredictd.json"
	cfg := `{"serve": {"addr": ":9090", "window": "5ms", "max_batch": 32}, "shards": {"count": 4},
		"state": {"fsync": "none"}, "train": {"twostep": true}}`
	if err := os.WriteFile(path, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}
	var note bytes.Buffer
	fs := flag.NewFlagSet("qpredictd", flag.ContinueOnError)
	opts, timings, err := loadOptions(fs, []string{"-window", "1ms", "-config", path, "-shards", "2", "-fsync", "always", "-timings"}, &note)
	if err != nil {
		t.Fatal(err)
	}
	def := qpredict.Default()
	if opts.Serve.Window.Std() != time.Millisecond || opts.Shards.Count != 2 || opts.State.Fsync != "always" {
		t.Errorf("flags did not beat the file: window %v, shards %d, fsync %q", opts.Serve.Window, opts.Shards.Count, opts.State.Fsync)
	}
	if opts.Serve.Addr != ":9090" || opts.Serve.MaxBatch != 32 || !opts.Train.TwoStep {
		t.Errorf("the file did not beat the defaults: %+v %+v", opts.Serve, opts.Train)
	}
	if opts.Serve.QueueCap != def.Serve.QueueCap || opts.Sliding != def.Sliding || !timings {
		t.Errorf("defaults perturbed: %+v %+v timings %v", opts.Serve, opts.Sliding, timings)
	}
	if got := note.String(); !strings.Contains(got, "note: -fsync -shards -window override "+path) {
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
	// The model zoo's flags and config section are gone, and so is the
	// choice of partitioner, and they say so: an undefined flag, and a file
	// refused naming the section.
	for _, args := range [][]string{{"-champion", "optcost"}, {"-challengers", "optcost"}, {"-partitioner", "hash"}} {
		t.Run(args[0], func(t *testing.T) {
			fs := flag.NewFlagSet("qpredictd", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			if _, _, err := loadOptions(fs, args, &note); err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+args[0]) {
				t.Errorf("%s: %v, want an undefined flag", strings.Join(args, " "), err)
			}
		})
	}
	t.Run("champion section", func(t *testing.T) {
		zooCfg := t.TempDir() + "/zoo.json"
		if err := os.WriteFile(zooCfg, []byte(`{"champion": {"kind": "kcca", "challengers": ["planstruct"]}}`), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := loadOptions(flag.NewFlagSet("qpredictd", flag.ContinueOnError), []string{"-config", zooCfg}, &note); err == nil || !strings.Contains(err.Error(), `"champion"`) {
			t.Errorf("config with a champion section: %v, want an error naming \"champion\"", err)
		}
	})
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
