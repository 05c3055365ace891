package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/api"
	"repro/internal/catalog"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/statutil"
	"repro/internal/workload"
)

// metricDef is one row of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists what a user of qpredictd sees, with the relative worsening
// each may show before a change counts as a regression. Every workload
// reports every one of them; smoke_test.go holds BENCHMARK.json to this
// table.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"predict_p50_ms", "ms", "lower", 0.15},
	{"slo_share", "share", "higher", 0.05},
	{"throughput_qps", "queries/s", "higher", 0.15},
	{"cpu_ms_per_query", "ms", "lower", 0.25},
	{"rss_mb", "MB", "lower", 0.20},
	{"quality_within20", "share", "higher", 0.05},
}

// perLayer lists the single-layer metrics a traced run reports. They carry
// no bound: they explain a move in an end-to-end metric, they do not gate.
// The three feedback.* rows are end-to-end by nature (restart time, swap
// lag, observe ack) but only feedback-mixed has an observe stream, and an
// end-to-end metric must be reported, non-zero, by every workload.
var perLayer = []metricDef{
	// Timed public calls in the in-process layer run.
	{Name: "dataset.generate_ms", Unit: "ms", Better: "lower"},
	{Name: "core.train_ms", Unit: "ms", Better: "lower"},
	{Name: "sqlparse.parse_us", Unit: "us", Better: "lower"},
	{Name: "optimizer.plan_us", Unit: "us", Better: "lower"},
	{Name: "features.vector_us", Unit: "us", Better: "lower"},
	{Name: "core.plancache_hit_us", Unit: "us", Better: "lower"},
	{Name: "core.plancache_miss_us", Unit: "us", Better: "lower"},
	{Name: "kcca.project_us", Unit: "us", Better: "lower"},
	{Name: "knn.nearest_us", Unit: "us", Better: "lower"},
	{Name: "knn.index_build_ms", Unit: "ms", Better: "lower"},
	{Name: "core.predict_hot_us", Unit: "us", Better: "lower"},
	{Name: "core.predict_cold_us", Unit: "us", Better: "lower"},
	{Name: "parallel.predict_batch_speedup", Unit: "ratio", Better: "higher"},
	{Name: "shard.router1_predict_us", Unit: "us", Better: "lower"},
	{Name: "shard.router2_predict_us", Unit: "us", Better: "lower"},
	{Name: "shard.window_wait_us", Unit: "us", Better: "lower"},
	{Name: "serve.handler_single_us", Unit: "us", Better: "lower"},
	{Name: "serve.handler_batch64_hot_us", Unit: "us", Better: "lower"},
	{Name: "serve.handler_batch64_cold_us", Unit: "us", Better: "lower"},
	{Name: "serve.observe_handler_us", Unit: "us", Better: "lower"},
	{Name: "api.decode_batch64_us", Unit: "us", Better: "lower"},
	{Name: "api.encode_batch64_us", Unit: "us", Better: "lower"},
	{Name: "qpredictclient.roundtrip_us", Unit: "us", Better: "lower"},
	{Name: "core.observe_us", Unit: "us", Better: "lower"},
	{Name: "core.retrain_incremental_ms", Unit: "ms", Better: "lower"},
	{Name: "core.retrain_full_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.append_none_us", Unit: "us", Better: "lower"},
	{Name: "wal.append_batch_us", Unit: "us", Better: "lower"},
	{Name: "wal.append_always_us", Unit: "us", Better: "lower"},
	{Name: "wal.snapshot_ms", Unit: "ms", Better: "lower"},
	// The traced walk of this workload's own requests.
	{Name: "serve.handler_us", Unit: "us", Better: "lower"},
	{Name: "trace.walk_us", Unit: "us", Better: "lower"},
	{Name: "trace.overhead_us", Unit: "us", Better: "lower"},
	{Name: "reconcile.layers_over_handler", Unit: "ratio", Better: "higher"},
	{Name: "reconcile.client_minus_handler_us", Unit: "us", Better: "lower"},
	// Deltas of the daemon's own counters over the measured phase.
	{Name: "core.plancache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.projcache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "parallel.for_calls_per_query", Unit: "count", Better: "lower"},
	{Name: "serve.batch_size_mean", Unit: "count", Better: "higher"},
	{Name: "kcca.retrain_full_count", Unit: "count", Better: "lower"},
	{Name: "kcca.retrain_incremental_count", Unit: "count", Better: "higher"},
	{Name: "kernels.maintained_rebuilds", Unit: "count", Better: "lower"},
	{Name: "wal.fsyncs_per_observe", Unit: "count", Better: "lower"},
	{Name: "wal.snapshots", Unit: "count", Better: "lower"},
	{Name: "wal.records_replayed", Unit: "count", Better: "lower"},
	{Name: "wal.recover_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.mallocs_per_query", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.num_gc", Unit: "count", Better: "lower"},
	// The tail, and the host the run found itself on.
	{Name: "predict_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "host.ref_us", Unit: "us", Better: "lower"},
	{Name: "host.cpu_ms_per_query_raw", Unit: "ms", Better: "lower"},
	// The generator itself.
	{Name: "loadgen.late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.cpu_share", Unit: "share", Better: "lower"},
	{Name: "loadgen.valid", Unit: "bool", Better: "higher"},
	// feedback-mixed only; 0 on the workloads without an observe stream.
	{Name: "feedback.restart_s", Unit: "s", Better: "lower"},
	{Name: "feedback.swap_lag_mean_ms", Unit: "ms", Better: "lower"},
	{Name: "feedback.observe_p50_ms", Unit: "ms", Better: "lower"},
}

// spec is one workload: a traffic mix chosen because it sends requests down
// a different path through the daemon than the others do.
type spec struct {
	Name string
	Why  string

	batch int  // queries per predict request
	cold  bool // cycle the cold pool (working set ≫ caches) instead of the hot one

	// rate > 0 is an open loop at that many predict requests per second.
	// rate == 0 is a closed loop; nominal then fixes the request count as
	// nominal × seconds, so the work is the same on every run and only the
	// time it takes varies.
	rate, nominal float64
	// observeRate > 0 adds an ordered observe stream on its own connection
	// and boots the daemon with -state-dir.
	observeRate float64
	// sloMs is the latency limit slo_share is judged against.
	sloMs float64
}

var specs = []spec{
	{
		Name:  "single-hot",
		Why:   "Admission control: open loop, 300 single-query predicts/s over 200 queries that fit every cache. Latency is the 2 ms coalescer window plus HTTP/JSON; a parser or kernel change must show no change.",
		batch: 1, rate: 300, sloMs: 10,
	},
	{
		Name:  "batch-hot",
		Why:   "What-if and capacity planning: closed loop of 64-query batches over the same cached pool. Coalescer fan-out, kNN and JSON encode do the work; plan and projection are cached away.",
		batch: 64, nominal: 300, sloMs: 25,
	},
	{
		Name:  "batch-cold",
		Why:   "Working set far beyond the caches: closed loop of 64-query batches cycling 16384 distinct queries. sqlparse, optimizer, features and kernel projection do the work; a cache change must show no change.",
		batch: 64, cold: true, nominal: 115, sloMs: 50,
	},
	{
		Name:  "feedback-mixed",
		Why:   "Writes beside reads: 100 predicts/s while 20 observes/s retrain the model inline, retire the projection cache per swap and append to the WAL. A predict gain that costs freshness or recovery shows.",
		batch: 1, rate: 100, observeRate: 20, sloMs: 4000,
	},
}

func specByName(name string) (spec, bool) {
	for _, sp := range specs {
		if sp.Name == name {
			return sp, true
		}
	}
	return spec{}, false
}

// scale holds the sizes that follow from the stock daemon's settings. The
// wiring test shrinks them; nothing else does.
type scale struct {
	train         int // -train
	window        int // sliding capacity: observes that fill it, sent untimed before measuring
	retrainEvery  int // observes between inline retrains
	snapshotEvery int // applied observes between snapshots
	planCache     int // the daemon's plan cache capacity
	hotPool       int // distinct hot queries: fits the plan cache and the 1024-entry projection cache
	coldPool      int // distinct cold queries: 4× the plan cache, 16× the projection cache
	heldout       int // held-out queries behind quality_within20
	probes        int // fixed probe set compared across the crash
	boots         int // cold boots behind setup_s
	minBeyond     int // samples required beyond predict_p99_ms
	walk          int // requests the traced walk takes through the layers
	reps          int // repetitions behind each timed call of the layer run
}

var stock = scale{
	train: 800, window: 500, retrainEvery: 100, snapshotEvery: 500,
	planCache: 4096, hotPool: 200, coldPool: 16384, heldout: 2048, probes: 20, boots: 3,
	minBeyond: minBeyond, walk: 300, reps: 200,
}

// plan is a spec made concrete for one run: every phase is a fixed number
// of requests, so retrains, snapshots, the WAL tail and cache misses are
// the same count on every run and only timing varies.
type plan struct {
	spec
	scale
	conns    int // connections of the predict stream
	warm     int // untimed predict requests that fill the caches before measuring
	predicts int
	observes int
}

func (sp spec) at(seconds float64, sc scale, conns int) plan {
	p := plan{spec: sp, scale: sc, conns: conns}
	r := sp.rate
	if r == 0 {
		r = sp.nominal
	}
	p.predicts = int(math.Round(r * seconds))
	p.observes = int(math.Round(sp.observeRate * seconds))
	if sp.observeRate > 0 {
		p.conns = 1 // the second connection carries the observe stream
	}
	// Twice round the hot pool fills both caches; the cold pool only needs
	// the LRUs full, which twice the plan cache's capacity ensures.
	pool := sc.hotPool
	if sp.cold {
		pool = sc.planCache
	}
	p.warm = 2*pool/sp.batch + 1
	return p
}

// swaps is how many retrains the measured observe stream triggers.
func (p plan) swaps() int { return p.observes / p.retrainEvery }

// walTail is how many WAL records lie behind the newest snapshot once the
// observe stream has drained — what recovery has to replay.
func (p plan) walTail() int { return (p.window + p.observes) % p.snapshotEvery }

// held is one held-out query with the elapsed time the simulator measured.
type held struct {
	SQL        string
	ElapsedSec float64
}

// inputs is everything a run sends, generated from the seed alone. The
// daemon only ever sees the SQL text and the observed metrics.
type inputs struct {
	Hot      []string
	Cold     []string
	Observes []api.Observation // window-filling prefix, then the measured stream
	Heldout  []held
}

// The stock daemon plans against TPC-DS scale 1 with data seed 1000 on the
// research4 machine and trains on workload seed 1. Observed and held-out
// metrics must come from the same simulator configuration to be "actuals"
// for the plans the daemon builds, and from other workload seeds so that
// held-out queries were never trained on.
const daemonDataSeed = 1000

func datasetSeed(seed int64, stream int64) int64 { return 1<<40 + seed*8 + stream }

// distinctSQL renders n distinct queries round-robin from the TPC-DS
// templates. A template that has run out of distinct instances is passed
// over, so n may exceed what any single template can supply.
func distinctSQL(seed int64, purpose string, n int) ([]string, error) {
	tpls := workload.TPCDSTemplates()
	rngs := make([]*statutil.RNG, len(tpls))
	for i, t := range tpls {
		rngs[i] = statutil.NewRNG(seed, "bench:"+purpose+":"+t.Name)
	}
	seen := make(map[string]struct{}, n)
	out := make([]string, 0, n)
	for draws := 0; len(out) < n; draws++ {
		if draws > 64*n+1024 {
			return nil, fmt.Errorf("templates yielded only %d distinct queries of %d", len(out), n)
		}
		i := draws % len(tpls)
		sql := tpls[i].Gen(rngs[i]).Render()
		if _, dup := seen[sql]; dup {
			continue
		}
		seen[sql] = struct{}{}
		out = append(out, sql)
	}
	return out, nil
}

func simulated(seed int64, count int) ([]*dataset.Query, error) {
	ds, err := dataset.Generate(dataset.GenConfig{
		Seed:      seed,
		DataSeed:  daemonDataSeed,
		Machine:   exec.Research4(),
		Schema:    catalog.TPCDS(1),
		Templates: workload.TPCDSTemplates(),
		Count:     count,
	})
	if err != nil {
		return nil, err
	}
	return ds.Queries, nil
}

func generate(seed int64, p plan) (*inputs, error) {
	in := &inputs{}
	var err error
	if in.Hot, err = distinctSQL(seed, "hot", p.hotPool); err != nil {
		return nil, err
	}
	if in.Cold, err = distinctSQL(seed, "cold", p.coldPool); err != nil {
		return nil, err
	}
	if n := p.window + p.observes; p.observeRate > 0 {
		// The one input that does not follow the seed. What a retrain costs
		// depends on how many iterations its eigensolver needs, and that on
		// the window's contents: across seeds, on a quiet host, the same
		// schedule cost 5.5 to 8.2 ms of CPU per predict. One fixed stream
		// makes every run retrain on the same windows.
		qs, err := simulated(datasetSeed(0, 1), n)
		if err != nil {
			return nil, err
		}
		for _, q := range qs {
			in.Observes = append(in.Observes, api.Observation{SQL: q.SQL, Metrics: api.MetricsFrom(q.Metrics)})
		}
	}
	qs, err := simulated(datasetSeed(seed, 2), p.heldout)
	if err != nil {
		return nil, err
	}
	for _, q := range qs {
		in.Heldout = append(in.Heldout, held{q.SQL, q.Metrics.ElapsedSec})
	}
	return in, nil
}

// request is one scheduled operation: a predict carrying sqls or an observe
// carrying obs.
type request struct {
	// Due is the offset from phase start at which an open-loop request is
	// due; closed-loop requests leave it zero and go as soon as a client is
	// free.
	Due  time.Duration
	SQLs []string
	Obs  []api.Observation
}

// predictRequests lays out n predict requests starting at request number
// first of the cyclic walk over the pool: request r carries
// pool[(r·batch + j) mod len]. Cyclic access gives an LRU smaller than the
// pool a 0% hit rate and one larger than it 100%.
func (p plan) predictRequests(in *inputs, first, n int) []request {
	pool := in.Hot
	if p.cold {
		pool = in.Cold
	}
	reqs := make([]request, n)
	flat := make([]string, n*p.batch)
	for i := range reqs {
		sqls := flat[i*p.batch : (i+1)*p.batch]
		for j := range sqls {
			sqls[j] = pool[((first+i)*p.batch+j)%len(pool)]
		}
		reqs[i].SQLs = sqls
		if p.rate > 0 {
			reqs[i].Due = time.Duration(float64(i) / p.rate * float64(time.Second))
		}
	}
	return reqs
}

// observeRequests is the measured observe stream: one observation per
// request, in order, behind the window-filling prefix.
func (p plan) observeRequests(in *inputs) []request {
	reqs := make([]request, p.observes)
	for i := range reqs {
		reqs[i].Obs = in.Observes[p.window+i : p.window+i+1]
		reqs[i].Due = time.Duration(float64(i) / p.observeRate * float64(time.Second))
	}
	return reqs
}
