package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/features"
	"repro/internal/knn"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/parallel"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/sqlparse"
	"repro/internal/wal"
)

// The layer run calls each module's public functions in process, on the
// inputs the end-to-end run sends, and records a span around every call.
// End-to-end numbers never come from here.

// span is one timed call into a layer. Spans of one request share Request;
// Parent is the ID of the span whose call made this one (0 for a root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory. All spans come from the one goroutine that
// walks requests, so the open spans form a stack.
type tracer struct {
	on      bool
	t0      time.Time
	request int
	spans   []span
	open    []int // indexes into spans
}

var noSpan = func() {}

// span opens a span under the innermost open one and returns its closer.
func (t *tracer) span(name string) func() {
	if !t.on {
		return noSpan
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{ID: i + 1, Parent: parent, Request: t.request, Name: name, StartNS: int64(time.Since(t.t0))})
	t.open = append(t.open, i)
	return func() {
		t.spans[i].EndNS = int64(time.Since(t.t0))
		t.open = t.open[:len(t.open)-1]
	}
}

// selfTimes returns each span's duration minus the part its children cover.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.EndNS - s.StartNS
		if s.Parent != 0 {
			self[s.Parent-1] -= s.EndNS - s.StartNS
		}
	}
	return self
}

// layerTable sums the spans by name — calls, total time, self time — and
// renders one line per name, largest self time first.
func layerTable(spans []span) string {
	type row struct {
		name        string
		calls       int
		total, self int64
	}
	self := selfTimes(spans)
	byName := map[string]*row{}
	var rows []*row
	for i, s := range spans {
		r := byName[s.Name]
		if r == nil {
			r = &row{name: s.Name}
			byName[s.Name] = r
			rows = append(rows, r)
		}
		r.calls++
		r.total += s.EndNS - s.StartNS
		r.self += self[i]
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].self > rows[j].self })
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-24s %8s %12s %12s %12s\n", "span", "calls", "total_ms", "self_ms", "self_us/call")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-24s %8d %12.3f %12.3f %12.3f\n", r.name, r.calls, float64(r.total)/1e6, float64(r.self)/1e6, float64(r.self)/1e3/float64(r.calls))
	}
	return sb.String()
}

// lab is the in-process copy of what the stock daemon boots with: the same
// schema, planner, training set and model.
type lab struct {
	schema  *catalog.Schema
	machine exec.Machine
	planCfg optimizer.Config
	train   []*dataset.Query
	pred    *core.Predictor
	tr      *tracer
	m       map[string]float64
	err     error // the first error of any timed call
}

// The stock daemon's remaining defaults (pkg/qpredict.Default).
const (
	stockTrainSeed = 1
	stockWindow    = 2 * time.Millisecond
	stockMaxBatch  = 64
)

// time calls fn reps times and records under name (unless it is empty) the
// median call, in unit, divided by the per items one call handles. It
// returns the median in ns.
func (l *lab) time(name string, unit time.Duration, reps, per int, fn func(i int) error) float64 {
	d := make([]float64, reps)
	for i := range d {
		t0 := time.Now()
		err := fn(i)
		d[i] = float64(time.Since(t0))
		if err != nil && l.err == nil {
			l.err = fmt.Errorf("timing %q: %w", name, err)
		}
	}
	ns := median(d)
	if name != "" {
		l.m[name] = ns / float64(unit) / float64(per)
	}
	return ns
}

func newLab(sc scale) (*lab, error) {
	l := &lab{schema: catalog.TPCDS(1), machine: exec.Research4(), tr: &tracer{t0: time.Now()}, m: map[string]float64{}}
	l.planCfg = optimizer.DefaultConfig(l.machine.Processors)
	l.time("dataset.generate_ms", time.Millisecond, 1, 1, func(int) (err error) {
		l.train, err = simulated(stockTrainSeed, sc.train)
		return err
	})
	if l.err != nil {
		return nil, l.err
	}
	l.time("core.train_ms", time.Millisecond, 1, 1, func(int) (err error) {
		l.pred, err = core.Train(l.train, core.DefaultOptions())
		return err
	})
	return l, l.err
}

// plan is the daemon's SQL → planned query pipeline with a span around each
// stage. It fills PlanFeat itself so the plan cache does not repeat the
// walk outside a span.
func (l *lab) plan(sql string) (*dataset.Query, error) {
	end := l.tr.span("sqlparse.parse")
	ast, err := sqlparse.Parse(sql)
	end()
	if err != nil {
		return nil, err
	}
	end = l.tr.span("optimizer.plan")
	plan, err := optimizer.BuildPlan(ast, l.schema, daemonDataSeed, l.planCfg)
	end()
	if err != nil {
		return nil, err
	}
	end = l.tr.span("features.vector")
	feat := features.PlanVector(plan)
	end()
	return &dataset.Query{SQL: sql, AST: ast, Plan: plan, PlanFeat: feat}, nil
}

func (l *lab) router(shards int, window time.Duration) (*shard.Router, error) {
	cfgs := make([]shard.ShardConfig, shards)
	for i := range cfgs {
		cfgs[i].Boot = l.pred
	}
	var part shard.Partitioner = shard.Passthrough{}
	if shards > 1 {
		part = shard.NewHashPartitioner(shards, core.PlanFeatures)
	}
	return shard.NewRouter(cfgs, part, shard.Config{Window: window, MaxBatch: stockMaxBatch}, true)
}

func (l *lab) server(sliding *core.SlidingPredictor) (*serve.Server, error) {
	return serve.New(serve.Config{
		Predictor: l.pred, Sliding: sliding,
		Schema: l.schema, Machine: l.machine, DataSeed: daemonDataSeed,
		Window: stockWindow, MaxBatch: stockMaxBatch,
	})
}

func predictBody(sqls []string) []byte {
	req := api.PredictRequest{Queries: make([]api.QueryInput, len(sqls))}
	for i, s := range sqls {
		req.Queries[i].SQL = s
	}
	body, _ := json.Marshal(req) // a struct of strings always marshals
	return body
}

// post runs one request through a handler in process and fails on a non-2xx.
func post(h http.Handler, path string, body []byte) (*httptest.ResponseRecorder, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	if rec.Code/100 != 2 {
		return rec, fmt.Errorf("POST %s: HTTP %d: %s", path, rec.Code, rec.Body)
	}
	return rec, nil
}

// walk takes the run's own requests through the request path one public
// call at a time — decode, plan cache (parse, optimize, featurize on a
// miss), the shard tier's coalesced predict, encode — under one request id
// each, once without spans and once with; the same requests also go through
// the whole handler. By construction the layers' self times over a request
// sum to the walk's time, so walk ÷ handler says how much of the handler the
// layers account for. The walk predicts through shard.Router because the
// stock daemon's own coalescer has no public entry point.
func (l *lab) walk(ctx context.Context, p plan, in *inputs) error {
	n := min(p.walk, p.coldPool/2/p.batch)
	bodies := make([][]byte, n)
	for i, r := range p.predictRequests(in, p.warm, n) {
		bodies[i] = predictBody(r.SQLs)
	}
	router, err := l.router(1, stockWindow)
	if err != nil {
		return err
	}
	defer router.Close()
	srv, err := l.server(nil)
	if err != nil {
		return err
	}
	defer srv.Close()
	handler := srv.Handler()

	var buf bytes.Buffer
	one := func(plans *core.PlanCache, body []byte) error {
		defer l.tr.span("request")()
		end := l.tr.span("api.decode")
		var req api.PredictRequest
		err := json.Unmarshal(body, &req)
		end()
		if err != nil {
			return err
		}
		qs := make([]*dataset.Query, len(req.Queries))
		for i, q := range req.Queries {
			end = l.tr.span("core.plancache.plan")
			qs[i], err = plans.Plan(q.SQL)
			end()
			if err != nil {
				return err
			}
		}
		end = l.tr.span("shard.predict")
		outs := router.Predict(ctx, qs)
		end()
		resp := api.PredictResponse{Version: api.Version, Results: make([]api.QueryResult, len(qs))}
		for i, out := range outs {
			if err := errors.Join(out.Err, out.Res.Err); err != nil {
				return err
			}
			pr := out.Res.Prediction
			m := api.MetricsFrom(pr.Metrics)
			resp.Results[i] = api.QueryResult{
				SQL: qs[i].SQL, Metrics: &m, Category: pr.Category.String(), Confidence: pr.Confidence,
				OptimizerCost: qs[i].Plan.Cost, Generation: out.Gen, ModelKind: out.Kind,
			}
		}
		end = l.tr.span("api.encode")
		buf.Reset()
		err = json.NewEncoder(&buf).Encode(resp)
		end()
		return err
	}
	// Each pass starts from the cache state the measured phase runs in: the
	// hot pool resident, or a plan cache the cyclic cold pool never hits.
	pass := func(name string, traced bool) float64 {
		plans := core.NewPlanCache(0, l.plan)
		if !p.cold {
			for _, sql := range in.Hot {
				plans.Plan(sql)
			}
		}
		l.tr.on = traced
		defer func() { l.tr.on = false }()
		return l.time(name, time.Microsecond, n, 1, func(i int) error {
			l.tr.request = i + 1
			return one(plans, bodies[i])
		})
	}
	for _, r := range p.predictRequests(in, 0, p.warm) {
		if _, err := post(handler, "/v1/predict", predictBody(r.SQLs)); err != nil {
			return err
		}
	}
	handlerNS := l.time("serve.handler_us", time.Microsecond, n, 1, func(i int) error {
		_, err := post(handler, "/v1/predict", bodies[i])
		return err
	})
	untraced := pass("", false)
	traced := pass("trace.walk_us", true)
	l.m["trace.overhead_us"] = (traced - untraced) / 1e3
	l.m["reconcile.layers_over_handler"] = traced / handlerNS
	return l.err
}

// micro times single public calls of each module. The inputs are the run's
// cold pool, so parse, plan and projection see the queries batch-cold sends.
func (l *lab) micro(ctx context.Context, p plan, cold []string, dir string) error {
	const us, ms = time.Microsecond, time.Millisecond
	reps := p.reps
	few := max(3, reps/4)               // for calls that wait out the 2 ms window
	sqls := cold[:min(len(cold), 1280)] // more distinct queries than the projection cache holds
	qs := make([]*dataset.Query, len(sqls))

	l.time("sqlparse.parse_us", us, len(sqls), 1, func(i int) error {
		ast, err := sqlparse.Parse(sqls[i])
		qs[i] = &dataset.Query{SQL: sqls[i], AST: ast}
		return err
	})
	if l.err != nil {
		return l.err
	}
	l.time("optimizer.plan_us", us, len(sqls), 1, func(i int) (err error) {
		qs[i].Plan, err = optimizer.BuildPlan(qs[i].AST, l.schema, daemonDataSeed, l.planCfg)
		return err
	})
	if l.err != nil {
		return l.err
	}
	l.time("features.vector_us", us, len(sqls), 1, func(i int) error {
		qs[i].PlanFeat = features.PlanVector(qs[i].Plan)
		return nil
	})
	cache := core.NewPlanCache(0, serve.PlannerFunc(l.schema, daemonDataSeed, l.machine))
	lookup := func(i int) error { _, err := cache.Plan(sqls[i]); return err }
	l.time("core.plancache_miss_us", us, len(sqls), 1, lookup)
	l.time("core.plancache_hit_us", us, len(sqls), 1, lookup)

	model, index := l.pred.Model(), l.pred.Index()
	projs := make([][]float64, reps)
	l.time("kcca.project_us", us, reps, 1, func(i int) error {
		projs[i], _ = model.ProjectQueryKernel(qs[i].PlanFeat)
		return nil
	})
	l.time("knn.nearest_us", us, reps, 1, func(i int) error {
		_, err := index.Nearest(projs[i], core.DefaultOptions().KNN.K)
		return err
	})
	l.time("knn.index_build_ms", ms, max(3, reps/10), 1, func(int) error {
		knn.NewIndex(model.QueryProj, knn.Euclidean)
		return nil
	})

	// Predictor.Predict per query at batch 64: the same 64 queries again
	// (projection cache hits) against 64 the cache has long evicted.
	rounds := len(qs) / stockMaxBatch
	predict := func(round int) error {
		reqs := make([]core.Request, stockMaxBatch)
		for j := range reqs {
			reqs[j].Query = qs[(round%rounds)*stockMaxBatch+j]
		}
		for _, r := range l.pred.Predict(reqs...) {
			if r.Err != nil {
				return r.Err
			}
		}
		return nil
	}
	l.time("core.predict_cold_us", us, 2*rounds, stockMaxBatch, predict)
	l.time("core.predict_hot_us", us, reps, stockMaxBatch, func(int) error { return predict(0) })
	prev := parallel.SetMaxProcs(1)
	serial := l.time("", us, 2*rounds, stockMaxBatch, predict)
	parallel.SetMaxProcs(runtime.NumCPU())
	wide := l.time("", us, 2*rounds, stockMaxBatch, predict)
	parallel.SetMaxProcs(prev)
	l.m["parallel.predict_batch_speedup"] = serial / wide

	// The shard tier: a full batch through one shard and split across two,
	// and what the coalescing window costs a lone query.
	routed := func(name string, shards int, window time.Duration, n int) float64 {
		r, err := l.router(shards, window)
		if err != nil {
			l.err = errors.Join(l.err, err)
			return 0
		}
		defer r.Close()
		return l.time(name, us, few, n, func(int) error {
			for _, out := range r.Predict(ctx, qs[:n]) {
				if err := errors.Join(out.Err, out.Res.Err); err != nil {
					return err
				}
			}
			return nil
		})
	}
	routed("shard.router1_predict_us", 1, stockWindow, stockMaxBatch)
	routed("shard.router2_predict_us", 2, stockWindow, stockMaxBatch)
	l.m["shard.window_wait_us"] = (routed("", 1, stockWindow, 1) - routed("", 1, 0, 1)) / 1e3

	// The HTTP handler in process, and the wire format on its own.
	sliding, err := core.NewSliding(p.window, p.retrainEvery, core.DefaultOptions())
	if err != nil {
		return err
	}
	srv, err := l.server(sliding)
	if err != nil {
		return err
	}
	defer srv.Close()
	h := srv.Handler()
	var rec *httptest.ResponseRecorder
	handle := func(name, path string, n int, body func(i int) []byte) {
		l.time(name, us, n, 1, func(i int) (err error) {
			rec, err = post(h, path, body(i))
			return err
		})
	}
	single, hotBody := predictBody(sqls[:1]), predictBody(sqls[:stockMaxBatch])
	handle("serve.handler_single_us", "/v1/predict", few, func(int) []byte { return single })
	handle("serve.handler_batch64_hot_us", "/v1/predict", reps, func(int) []byte { return hotBody })
	if l.err != nil {
		return l.err
	}
	respBody := bytes.Clone(rec.Body.Bytes())
	handle("serve.handler_batch64_cold_us", "/v1/predict", min(reps/4+1, len(cold)/stockMaxBatch), func(i int) []byte {
		return predictBody(cold[len(cold)-(i+1)*stockMaxBatch : len(cold)-i*stockMaxBatch])
	})
	// Fewer observes than a retrain interval, so no retrain runs beside them.
	handle("serve.observe_handler_us", "/v1/observe", min(reps, p.retrainEvery-1, len(l.train)), func(i int) []byte {
		q := l.train[i]
		body, _ := json.Marshal(api.ObserveRequest{Observations: []api.Observation{{SQL: q.SQL, Metrics: api.MetricsFrom(q.Metrics)}}})
		return body
	})
	l.time("api.decode_batch64_us", us, reps, 1, func(int) error {
		var req api.PredictRequest
		return json.Unmarshal(hotBody, &req)
	})
	var resp api.PredictResponse
	if err := json.Unmarshal(respBody, &resp); err != nil {
		return err
	}
	l.time("api.encode_batch64_us", us, reps, 1, func(int) error {
		_, err := json.Marshal(&resp)
		return err
	})
	canned := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(respBody)
	}))
	client := dial(canned.URL, 1)[0].client
	l.time("qpredictclient.roundtrip_us", us, reps, 1, func(int) error {
		_, err := client.Predict(ctx, sqls[:stockMaxBatch]...)
		return err
	})
	canned.Close()

	// The sliding window. Filling it ends in the one full retrain; after
	// that every observe patches the maintained kernels and every retrain is
	// incremental unless the drift guard fires.
	stream, err := simulated(datasetSeed(0, 3), p.window+2)
	if err != nil {
		return err
	}
	sliding, err = core.NewSliding(p.window, p.window, core.DefaultOptions())
	if err != nil {
		return err
	}
	for _, q := range stream[:p.window-1] {
		if err := sliding.Observe(q); err != nil {
			return err
		}
	}
	l.time("core.retrain_full_ms", ms, 1, 1, func(int) error { return sliding.Observe(stream[p.window-1]) })
	l.time("core.observe_us", us, 2, 1, func(i int) error { return sliding.Observe(stream[p.window+i]) })
	incremental := obs.GetCounter("kcca.retrain.incremental")
	before := incremental.Value()
	l.time("core.retrain_incremental_ms", ms, 2, 1, func(int) error { return sliding.Retrain() })
	if incremental.Value() != before+2 {
		l.m["core.retrain_incremental_ms"] = 0 // the drift guard sent them down the full path
	}

	// The WAL: an append under each fsync policy and a snapshot of the full
	// window. (Recovery is timed by the daemon itself, end to end.)
	for _, policy := range []wal.SyncPolicy{wal.SyncNone, wal.SyncBatch, wal.SyncAlways} {
		wdir := filepath.Join(dir, "wal-"+policy.String())
		if err := os.RemoveAll(wdir); err != nil {
			return err
		}
		st, err := wal.OpenStore(wal.StoreOptions{Dir: wdir, Policy: policy, Plan: cache.Plan})
		if err != nil {
			return err
		}
		l.time("wal.append_"+policy.String()+"_us", us, reps, 1, func(i int) error {
			q := stream[i%len(stream)]
			_, err := st.Append(q.SQL, q.Metrics)
			return err
		})
		if policy == wal.SyncBatch {
			l.time("wal.snapshot_ms", ms, 3, 1, func(int) error { return st.Snapshot(sliding, 1) })
		}
		if err := st.Close(nil, 0); err != nil {
			return err
		}
	}
	return l.err
}

// runLayers is the whole in-process pass for one workload. It returns the
// per-layer metrics it measured and the spans of the traced walk.
func runLayers(ctx context.Context, p plan, in *inputs, dir string) (map[string]float64, []span, error) {
	l, err := newLab(p.scale)
	if err != nil {
		return nil, nil, err
	}
	if err := l.micro(ctx, p, in.Cold, dir); err != nil {
		return nil, nil, err
	}
	if err := l.walk(ctx, p, in); err != nil {
		return nil, nil, err
	}
	return l.m, l.tr.spans, nil
}

func writeTrace(path string, spans []span) error {
	data, err := json.Marshal(struct {
		Unit  string `json:"unit"`
		Spans []span `json:"spans"`
	}{"ns since the layer run started", spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
