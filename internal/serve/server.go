// Package serve is the network-facing layer of the predictor: the HTTP
// adapter of the qpredictd daemon — the paper's Fig. 1 vendor-trains /
// customer-predicts workflow turned into an online service. It is
// stdlib-only and built around httptest-friendly pieces: New wires a Server
// from a Config, Handler returns its mux, Close drains it.
//
// The Server owns no model. Every Server serves through a shard.Router
// (internal/shard) of one or more shards, each with its own model slot,
// micro-batching queue and retrain loop; this package turns HTTP into calls
// on it. /v1/predict decodes the body, parses and plans each SQL query
// through the plan cache, hands the planned queries to Router.Predict under
// the per-request deadline (429 when a shard's bounded queue has no room for
// its share) and encodes the outcomes in input order. /v1/observe plans and
// checks every executed query of a batch and hands the batch to
// Router.ObserveBatch, which queues it whole or not at all; each owning
// shard retrains in the background and swaps each new generation in
// without blocking a read. /v1/model and /v1/shards report what the router's shards serve.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/shard"
	"repro/internal/sqlparse"
	"repro/internal/wal"
	"repro/internal/workload"
)

// Handler metrics: request outcomes and latency. The predict queue's
// (serve.queue.depth, serve.batch.size, serve.queue_wait.seconds,
// serve.batch.seconds) are recorded by internal/coalesce; swaps, retrain
// errors, the observe queue's depth and the per-shard series by
// internal/shard.
var (
	requestTimeouts = obs.GetCounter("serve.request.timeouts")
	predictRequests = obs.GetCounter("serve.requests.predict")
	observeRequests = obs.GetCounter("serve.requests.observe")
	predictSeconds  = obs.GetHistogram("serve.predict.seconds")
	// Which codec path served (internal/api): predict bodies outside the
	// decoder's fast path, and results whose metrics/category/confidence run
	// was copied from, or stored into, a prediction-cache entry's memo.
	decodeFallbacks = obs.GetCounter("serve.decode.fallbacks")
	encodeMemoHits  = obs.GetCounter("serve.encode.memo_hits")
	encodeMemoFills = obs.GetCounter("serve.encode.memo_fills")
)

// Config wires a Server.
type Config struct {
	// Router is the serving tier: predict and observe traffic is partitioned
	// across its shards, each with its own coalescer, generation, and
	// background retrain loop. The Server takes ownership and closes the
	// router on Close. When nil, New builds a one-shard passthrough router
	// from the shorthand fields Predictor, Sliding, Store, BootGen, Window,
	// MaxBatch and QueueCap; with a Router set, Predictor, Sliding and Store
	// must be nil and the queue knobs are the router's own.
	Router *shard.Router
	// Predictor is the one shard's boot model. It may be nil when Sliding is
	// set — the daemon then starts cold and becomes ready after the first
	// retrain.
	Predictor *core.Predictor
	// Sliding, when set, enables /v1/observe feedback and background
	// hot-swap retraining. The shard's observe goroutine takes sole
	// ownership of it.
	Sliding *core.SlidingPredictor
	// Schema and Machine configure the planner that turns incoming SQL
	// into the plan feature vectors the model consumes.
	Schema   *catalog.Schema
	Machine  exec.Machine
	DataSeed int64

	// Plans, when set, is the plan/feature cache every handler plans SQL
	// through — qpredictd shares one cache between live traffic and WAL
	// replay so recovery pre-warms serving. Nil builds a private cache of
	// the default size over the daemon's planner.
	Plans *core.PlanCache

	// Window, MaxBatch and QueueCap are the one shard's shard.Config: how
	// long its coalescer holds an open micro-batch for more arrivals (zero
	// never waits), the micro-batch cap in queries (default 64), and the
	// bound on pending queries (default 1024) beyond which a request that
	// does not fit whole is rejected with 429.
	Window   time.Duration
	MaxBatch int
	QueueCap int
	// Timeout is the per-request deadline for /v1/predict (default 10s).
	Timeout time.Duration
	// MaxQueries caps the number of queries in one /v1/predict body
	// (default 256).
	MaxQueries int
	// MaxBody caps the request body size in bytes (default 4 MiB).
	MaxBody int64

	// Store, when set with Sliding, makes the one shard's serving state
	// durable (shard.ShardConfig.Store): every observation is WAL-logged
	// before it is applied, and the sliding state is snapshotted
	// periodically and at drain.
	Store *wal.Store
	// BootGen, with Store, is the model generation recovered from durable
	// state; when positive (and Predictor is nil) the recovered Sliding
	// model is published at that generation instead of restarting at 1.
	BootGen int64
}

// Server is the prediction service: the HTTP face of a shard.Router. Create
// with New, mount with Handler, stop with Close.
type Server struct {
	cfg Config
	// plans is the SQL-keyed plan/feature cache (core.PlanCache):
	// generation-independent — plans are pure in (SQL, schema, data seed,
	// planner config), so hot swaps never invalidate it — and shared by the
	// predict path and the observe path.
	plans *core.PlanCache
	// router holds every model, queue and retrain loop the Server serves from.
	router *shard.Router
	// closed is set once the drain begins; /readyz reports it.
	closed atomic.Bool
}

// New validates the config and, unless it brings a router, builds the
// one-shard router its shorthand fields describe, which publishes the boot
// model (if any) and starts the shard's coalescer and observe goroutines.
func New(cfg Config) (*Server, error) {
	if cfg.Schema == nil {
		return nil, fmt.Errorf("serve: config needs a schema")
	}
	switch {
	case cfg.Router == nil:
		if cfg.Predictor == nil && cfg.Sliding == nil {
			return nil, fmt.Errorf("serve: config needs a boot predictor, a sliding predictor, or a shard router")
		}
		router, err := shard.NewRouter([]shard.ShardConfig{{
			Boot: cfg.Predictor, Sliding: cfg.Sliding, Store: cfg.Store, BootGen: cfg.BootGen,
		}}, shard.Passthrough{}, shard.Config{Window: cfg.Window, MaxBatch: cfg.MaxBatch, QueueCap: cfg.QueueCap}, false)
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		cfg.Router = router
	case cfg.Predictor != nil || cfg.Sliding != nil || cfg.Store != nil:
		return nil, fmt.Errorf("serve: config sets both a shard router and the one-shard shorthand (predictor, sliding, store)")
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * time.Second
	}
	if cfg.MaxQueries <= 0 {
		cfg.MaxQueries = 256
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = 4 << 20
	}
	if cfg.Plans == nil {
		cfg.Plans = NewPlanner(cfg.Schema, cfg.DataSeed, cfg.Machine, 0)
	}
	return &Server{cfg: cfg, plans: cfg.Plans, router: cfg.Router}, nil
}

// Close drains the server: new submissions are refused (503), in-flight
// micro-batches and queued observations finish, and every shard's background
// goroutines exit before Close returns. It is the shutdown hook qpredictd
// runs on SIGTERM, and it is idempotent.
func (s *Server) Close() {
	if !s.closed.Swap(true) {
		s.router.Close()
	}
}

// Handler returns the service mux:
//
//	POST /v1/predict   predict one or many queries
//	POST /v1/observe   feed executed queries to the retraining window
//	GET  /v1/model     current model metadata
//	GET  /v1/shards    routing policy and per-shard model state
//	GET  /healthz      process liveness
//	GET  /readyz       readiness (a model is being served and not draining)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/predict", s.handlePredict)
	mux.HandleFunc("/v1/observe", s.handleObserve)
	mux.HandleFunc("/v1/model", s.handleModel)
	mux.HandleFunc("/v1/shards", s.handleShards)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/readyz", s.handleReady)
	return mux
}

// handleReady reports whether a model is being served — whether any shard
// serves one (cold shards are rescued by the warm fallback or fail
// per-request) — and the drain.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	if s.closed.Load() {
		writeError(w, api.CodeShuttingDown, "draining")
		return
	}
	if !s.router.AnyReady() {
		writeError(w, api.CodeNotTrained, "no model trained yet")
		return
	}
	w.Write([]byte("ready\n"))
}

// PlannerFunc returns the deterministic SQL → planned-query pipeline the
// serving layer runs on every /v1/observe, packaged as a core.PlanFunc for
// WAL replay and snapshot restore. Plans and feature vectors are pure
// functions of (SQL, schema, data seed, planner config), so re-planning
// persisted SQL through this reproduces the live observation exactly. Its
// trees are allocated exactly sized, for callers that keep them.
func PlannerFunc(schema *catalog.Schema, dataSeed int64, machine exec.Machine) core.PlanFunc {
	planner := optimizer.NewPlanner(schema, dataSeed, optimizer.DefaultConfig(machine.Processors))
	return func(sql string) (*dataset.Query, error) { return planSQL(planner, sql, nil) }
}

// planSQL is PlannerFunc's pipeline. With a workspace, the trees and the
// Query are carved from it and the Query carries it for whoever drops the
// trees to release; a failure releases it here.
func planSQL(planner *optimizer.Planner, sql string, ws *dataset.Workspace) (*dataset.Query, error) {
	var (
		asts  *sqlparse.Arena
		plans *optimizer.Arena
	)
	if ws != nil {
		asts, plans = &ws.AST, &ws.Plan
	}
	ast, err := asts.Parse(sql)
	if err != nil {
		ws.Release()
		// Stage-tagged so handlers report parse_error vs plan_error;
		// Error() passes the message through unchanged, keeping WAL
		// replay diagnostics byte-identical.
		return nil, &planStageError{code: api.CodeParse, err: err}
	}
	plan, err := planner.PlanIn(plans, ast)
	if err != nil {
		ws.Release()
		return nil, &planStageError{code: api.CodePlan, err: err}
	}
	if ws == nil {
		return &dataset.Query{SQL: sql, AST: ast, Plan: plan}, nil
	}
	ws.Query = dataset.Query{SQL: sql, AST: ast, Plan: plan, Workspace: ws}
	return &ws.Query, nil
}

// NewPlanner wraps the daemon's deterministic planner in a plan/feature
// cache (core.PlanCache). entries 0 selects the default capacity, negative
// disables caching. qpredictd builds one and shares it between WAL replay
// (wal.StoreOptions.Plan) and live serving (Config.Plans), so boot-time
// recovery pre-warms the cache the first requests hit. A caching planner
// plans each miss in a pooled dataset.Workspace, which the cache releases
// once it has read the feature vector and the cost; the passthrough hands
// its trees to the caller, so it plans with PlannerFunc.
func NewPlanner(schema *catalog.Schema, dataSeed int64, machine exec.Machine, entries int) *core.PlanCache {
	if entries < 0 {
		return core.NewPlanCache(entries, PlannerFunc(schema, dataSeed, machine))
	}
	planner := optimizer.NewPlanner(schema, dataSeed, optimizer.DefaultConfig(machine.Processors))
	return core.NewPlanCache(entries, func(sql string) (*dataset.Query, error) {
		return planSQL(planner, sql, dataset.GetWorkspace())
	})
}

// PlanError classifies a failure of PlannerFunc's pipeline, called directly
// or through the plan cache, as a parse or a plan error.
func PlanError(err error) *api.Error {
	var stage *planStageError
	if errors.As(err, &stage) {
		return &api.Error{Code: stage.code, Message: stage.err.Error()}
	}
	return &api.Error{Code: api.CodePlan, Message: err.Error()}
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, api.CodeMethod, "use POST")
		return
	}
	predictRequests.Inc()
	defer predictSeconds.Since(time.Now())

	var req api.PredictRequest
	err := readBody(w, r, s.cfg.MaxBody, func(body []byte) error {
		fallback, err := api.DecodePredictRequest(body, &req)
		if fallback {
			decodeFallbacks.Inc()
		}
		return err
	})
	if err != nil {
		writeError(w, api.CodeBadRequest, "decoding body: "+err.Error())
		return
	}
	inputs := req.Inputs()
	if len(inputs) == 0 {
		writeError(w, api.CodeBadRequest, `no queries (use {"sql": ...} or {"queries": [...]})`)
		return
	}
	if len(inputs) > s.cfg.MaxQueries {
		writeError(w, api.CodeBadRequest,
			fmt.Sprintf("%d queries exceeds the per-request limit of %d", len(inputs), s.cfg.MaxQueries))
		return
	}
	if !s.router.AnyReady() {
		writeError(w, api.CodeNotTrained, "no model trained yet")
		return
	}

	// Parse + plan first: malformed queries fail in place without entering
	// a queue, so a batch mixing good and bad SQL still gets predictions
	// for the good part.
	reply := newPredictReply(len(inputs))
	defer reply.release()
	s.planInputs(inputs, reply)
	// The request context, bounded by the per-request deadline, rides with
	// each shard's group: when the handler gives up, the coalescer skips the
	// abandoned group instead of predicting for nobody.
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
	defer cancel()
	// Per-query failures (routing, a cold shard without rescue, model
	// errors) land in their own result slot; a shed queue, the drain and the
	// request deadline reject the whole request.
	sharded := s.router.Sharded()
	for k, out := range s.router.Predict(ctx, reply.qs) {
		i := reply.idx[k]
		res := &reply.results[i]
		err := out.Err
		if err == nil {
			err = out.Res.Err
		}
		switch {
		case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
			s.writeAbandoned(w, r)
			return
		case errors.Is(err, shard.ErrOverloaded), errors.Is(err, shard.ErrDraining):
			e := apiError(err)
			writeError(w, e.Code, e.Message)
			return
		case err != nil:
			res.Error = apiError(err)
		default:
			// The answer carries the generation that actually produced
			// it — under the cold-start fallback that is the fallback
			// shard's, not the cold owner's.
			reply.served(i, out.Res.Prediction, out.Gen)
		}
		if sharded {
			res.Shard = strconv.Itoa(out.Shard)
			if err == nil && out.Served != out.Shard {
				res.FallbackShard = strconv.Itoa(out.Served)
			}
		}
	}
	writePredict(w, s.modelInfo(), reply)
}

// predictReply is a predict response under construction: one result per
// input and, parallel to the results, the storage their Metrics point into
// and the fragments (api.AppendPredictResponse) each result may be encoded
// through — its prediction's and its plan's optimizer cost's. Replies are
// pooled, so a request allocates none of its slices in the steady state:
// nothing holds a reply once its body is written.
type predictReply struct {
	results []api.QueryResult
	metrics []api.Metrics
	frags   []*api.Fragment
	costs   []*api.Fragment
	// qs are the queries that planned, in input order, and idx the result
	// index of each (planInputs).
	qs  []*dataset.Query
	idx []int
}

var replyPool = sync.Pool{New: func() any { return new(predictReply) }}

// newPredictReply returns an empty reply for n inputs; release returns it.
func newPredictReply(n int) *predictReply {
	p := replyPool.Get().(*predictReply)
	if cap(p.results) < n {
		*p = predictReply{
			make([]api.QueryResult, n), make([]api.Metrics, n), make([]*api.Fragment, n), make([]*api.Fragment, n),
			make([]*dataset.Query, 0, n), make([]int, 0, n),
		}
	}
	p.results, p.metrics, p.frags, p.costs = p.results[:n], p.metrics[:n], p.frags[:n], p.costs[:n]
	return p
}

// release clears the reply, so the pool keeps no request's strings,
// queries or fragments alive, and pools it.
func (p *predictReply) release() {
	clear(p.results)
	clear(p.metrics)
	clear(p.frags)
	clear(p.costs)
	clear(p.qs)
	p.qs, p.idx = p.qs[:0], p.idx[:0]
	replyPool.Put(p)
}

// planInputs parses and plans every input through the plan cache into
// reply.qs, with each one's result index in reply.idx. A query that fails
// has its error in its result slot and goes no further. The queries are the
// cache's own, read-only.
func (s *Server) planInputs(inputs []api.QueryInput, reply *predictReply) {
	for i, in := range inputs {
		res := &reply.results[i]
		res.SQL = in.SQL
		q, err := s.plans.Shared(in.SQL)
		if err != nil {
			res.Error = PlanError(err)
			continue
		}
		res.OptimizerCost = q.Plan.Cost
		if q.Memo != nil {
			reply.costs[i] = &q.Memo.Cost
		}
		reply.qs = append(reply.qs, q)
		reply.idx = append(reply.idx, i)
	}
}

// served fills result i from the prediction a model of the given generation
// and kind answered with. A prediction that came out of a generation's
// prediction cache brings that entry's memo: metrics, category and
// confidence are then the same for every request the entry serves, which is
// what an api.Fragment needs, so the memo is the result's fragment.
func (p *predictReply) served(i int, pred *core.Prediction, gen int64) {
	res := &p.results[i]
	p.metrics[i] = api.MetricsFrom(pred.Metrics)
	res.Metrics = &p.metrics[i]
	res.Category = pred.Category.String()
	res.Confidence = pred.Confidence
	res.Generation = gen
	res.ModelKind = core.ModelKind
	p.frags[i] = pred.Memo
}

// respPool holds predict-response buffers.
var respPool = sync.Pool{New: func() any { return new([]byte) }}

// writePredict encodes a finished reply with the api codec — the only thing
// that encodes predict results — and sends it.
func writePredict(w http.ResponseWriter, model *api.ModelInfo, reply *predictReply) {
	buf := respPool.Get().(*[]byte)
	defer respPool.Put(buf)
	resp := api.PredictResponse{Version: api.Version, Model: model, Results: reply.results}
	body, use, err := api.AppendPredictResponse((*buf)[:0], &resp, reply.frags, reply.costs...)
	if err != nil {
		writeError(w, api.CodeInternal, "encoding response: "+err.Error())
		return
	}
	*buf = body
	encodeMemoHits.Add(int64(use.Hits))
	encodeMemoFills.Add(int64(use.Fills))
	writeBody(w, http.StatusOK, body)
}

// writeAbandoned reports a predict whose wait ended with its context rather
// than an answer: the client went away if the request's own context says so,
// otherwise the per-request deadline expired.
func (s *Server) writeAbandoned(w http.ResponseWriter, r *http.Request) {
	requestTimeouts.Inc()
	if err := r.Context().Err(); err != nil {
		writeError(w, api.CodeTimeout, "client went away: "+err.Error())
		return
	}
	writeError(w, api.CodeTimeout,
		fmt.Sprintf("prediction did not complete within %v", s.cfg.Timeout))
}

func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, api.CodeMethod, "use POST")
		return
	}
	observeRequests.Inc()
	if !s.router.HasFeedback() {
		writeError(w, api.CodeBadRequest, "serve: daemon runs a static model (no observation feedback)")
		return
	}
	var req api.ObserveRequest
	if err := readBody(w, r, s.cfg.MaxBody, func(body []byte) error { return json.Unmarshal(body, &req) }); err != nil {
		writeError(w, api.CodeBadRequest, "decoding body: "+err.Error())
		return
	}
	if len(req.Observations) == 0 {
		writeError(w, api.CodeBadRequest, "no observations")
		return
	}
	// Plan and check the whole batch before applying any of it: a bad
	// observation refuses the request with nothing from it applied.
	qs := make([]*dataset.Query, len(req.Observations))
	for i, o := range req.Observations {
		q, err := s.plans.Plan(o.SQL)
		if err != nil {
			e := PlanError(err)
			writeError(w, e.Code, fmt.Sprintf("observation %d: %s", i, e.Message))
			return
		}
		q.Metrics = o.Metrics.Exec()
		for j, v := range q.Metrics.Vector() {
			if !(v >= 0) || math.IsInf(v, 1) {
				writeError(w, api.CodeBadRequest, fmt.Sprintf("observation %d: metric %s is %v, want finite and >= 0",
					i, exec.MetricNames[j], v))
				return
			}
		}
		q.Category = workload.Categorize(q.Metrics.ElapsedSec)
		qs[i] = q
	}
	// Admission is all-or-nothing too: a batch some owning shard has no
	// queue room for is refused whole (429), with nothing from it queued.
	owners, err := s.router.ObserveBatch(qs)
	if err != nil {
		e := apiError(err)
		writeError(w, e.Code, e.Message)
		return
	}
	owner, sameOwner := owners[0], true // single-owner tracking for the shard field
	for _, sh := range owners {
		sameOwner = sameOwner && sh == owner
	}
	resp := api.ObserveResponse{
		Version:    api.Version,
		Accepted:   len(req.Observations),
		Generation: s.router.MaxGeneration(),
	}
	if s.router.Sharded() && sameOwner {
		resp.Shard = strconv.Itoa(owner)
		resp.WindowSize = s.router.Shard(owner).WindowSize()
	} else {
		resp.WindowSize = s.router.TotalWindow()
	}
	writeJSON(w, http.StatusAccepted, resp)
}

func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, api.CodeMethod, "use GET")
		return
	}
	info := s.modelInfo()
	if info == nil {
		writeError(w, api.CodeNotTrained, "no model trained yet")
		return
	}
	// Recovery status rides only on GET /v1/model (not on every predict
	// response), and only when the daemon runs with durable state; so do the
	// index's live search figures.
	info.Recovery = s.recoveryInfo()
	if info.Index != nil {
		s.indexPruning(info.Index)
	}
	writeJSON(w, http.StatusOK, struct {
		Version string         `json:"version"`
		Model   *api.ModelInfo `json:"model"`
	}{api.Version, info})
}

// modelInfo snapshots the served models' metadata, or nil before boot. It
// aggregates across shards: Generation is the highest per-shard generation,
// TrainedOn/Swaps/WindowSize are totals, and the Shards and Partitioner
// fields appear only when more than one shard runs (the single-shard wire
// format predates the router and is held byte for byte by
// TestShardedSingleEquivalence).
func (s *Server) modelInfo() *api.ModelInfo {
	var info *api.ModelInfo
	trained := 0
	var swaps, maxGen int64
	for i := 0; i < s.router.NumShards(); i++ {
		m := s.router.Shard(i).Model()
		if m == nil {
			continue
		}
		if info == nil {
			info = &api.ModelInfo{}
		}
		// Feature space and neighbor index come from the served predictor
		// (a test double has neither). Index shape aggregates across shards.
		if pred := m.Pred(); pred != nil {
			if info.Features == "" {
				opt := pred.Options()
				info.Features = opt.Features.String()
				info.TwoStep = opt.TwoStep
			}
			if ii := indexInfo(pred); info.Index == nil {
				info.Index = ii
			} else {
				info.Index.Points += ii.Points
			}
		}
		trained += m.Model.N()
		// Generation 1 is the boot model; every later generation was a swap.
		swaps += m.Gen - 1
		if m.Gen > maxGen {
			maxGen = m.Gen
		}
	}
	if info == nil {
		return nil
	}
	info.ModelKind = core.ModelKind
	info.Generation = maxGen
	info.TrainedOn = trained
	info.Swaps = swaps
	info.WindowSize = s.router.TotalWindow()
	if s.router.Sharded() {
		info.Shards = s.router.NumShards()
		info.Partitioner = s.router.Partitioner().Name()
	}
	return info
}

// apiRecovery converts a store's recovery record to its wire form.
func apiRecovery(info wal.RecoveryInfo) *api.RecoveryInfo {
	return &api.RecoveryInfo{
		Recovered:      info.Recovered,
		SnapshotSeq:    info.SnapshotSeq,
		Replayed:       info.Replayed,
		TornTail:       info.TornTail,
		TruncatedBytes: info.TruncatedBytes,
		ReplaySeconds:  info.ReplaySeconds,
	}
}

// recoveryInfo reports what boot-time recovery did, or nil when the daemon
// runs without durable state. It aggregates across shards: Recovered and
// TornTail are ORs, Replayed and TruncatedBytes are totals, SnapshotSeq and
// ReplaySeconds are maxima (per-shard detail is on GET /v1/shards).
func (s *Server) recoveryInfo() *api.RecoveryInfo {
	var agg *api.RecoveryInfo
	for i := 0; i < s.router.NumShards(); i++ {
		ri := s.router.Shard(i).Recovery()
		if ri == nil {
			continue
		}
		if agg == nil {
			agg = &api.RecoveryInfo{}
		}
		agg.Recovered = agg.Recovered || ri.Recovered
		agg.TornTail = agg.TornTail || ri.TornTail
		agg.Replayed += ri.Replayed
		agg.TruncatedBytes += ri.TruncatedBytes
		if ri.SnapshotSeq > agg.SnapshotSeq {
			agg.SnapshotSeq = ri.SnapshotSeq
		}
		if ri.ReplaySeconds > agg.ReplaySeconds {
			agg.ReplaySeconds = ri.ReplaySeconds
		}
	}
	return agg
}

// indexPruning fills in how every shard's served generation's index has
// served so far: searches, and the mean candidates scored and abandoned per
// search.
func (s *Server) indexPruning(ii *api.IndexInfo) {
	var searches, scored, abandoned int64
	for i := 0; i < s.router.NumShards(); i++ {
		m := s.router.Shard(i).Model()
		if m == nil || m.Pred() == nil {
			continue
		}
		st := m.Pred().Index().Stats()
		searches += st.Searches
		scored += st.PointsScored
		abandoned += st.PointsAbandoned
	}
	if searches > 0 {
		ii.Searches = searches
		ii.MeanScored = float64(scored) / float64(searches)
		ii.MeanAbandoned = float64(abandoned) / float64(searches)
	}
}

// indexInfo reports the static per-generation shape of a predictor's
// neighbor index: an exact scan over the generation's training points.
func indexInfo(p *core.Predictor) *api.IndexInfo {
	return &api.IndexInfo{Kind: "flat", Metric: p.Index().Metric().String(), Points: p.Index().Len()}
}

// handleShards serves GET /v1/shards: the routing policy and per-shard
// model state.
func (s *Server) handleShards(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, api.CodeMethod, "use GET")
		return
	}
	resp := api.ShardsResponse{Version: api.Version, Partitioner: s.router.Partitioner().Name()}
	for i := 0; i < s.router.NumShards(); i++ {
		sh := s.router.Shard(i)
		si := api.ShardInfo{
			ID:           sh.ID,
			WindowSize:   sh.WindowSize(),
			Predictions:  sh.Predictions(),
			Observations: sh.Observed(),
		}
		if m := sh.Model(); m != nil {
			si.Ready = true
			si.Generation = m.Gen
			si.Swaps = m.Gen - 1
			si.TrainedOn = m.Model.N()
			si.ModelKind = core.ModelKind
		}
		if ri := sh.Recovery(); ri != nil {
			si.Recovery = apiRecovery(*ri)
		}
		resp.Shards = append(resp.Shards, si)
	}
	writeJSON(w, http.StatusOK, resp)
}
