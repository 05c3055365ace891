package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/api"
)

// result is what one run of one workload measured.
type result struct {
	E2E    map[string]float64 // every endToEnd metric
	Layer  map[string]float64 // the per-layer metrics read off the daemon and the generator
	Phases []*phase
	// Counts are the run's fixed amounts of work; with one seed they are
	// the same on every run.
	Counts map[string]int64
	// ClientP50MS is predict_p50_ms as the client saw it, never scaled to
	// the reference host speed: what the in-process handler time is
	// reconciled against.
	ClientP50MS float64
}

type phase struct {
	Name    string
	Seconds float64 // wall time, including the waits for the daemon to drain
	tally
}

func (r *result) failed() (attempted, failed int) {
	for _, ph := range r.Phases {
		attempted += ph.Sent
		failed += ph.Failed
	}
	return attempted, failed
}

// e2e is one end-to-end run in progress.
type e2e struct {
	ctx  context.Context
	boot booter
	p    plan
	in   *inputs
	res  *result

	t        target
	stateDir string
	booted   *scrape // the daemon's counters right after boot
	predict  []*conn
	observe  []*conn
	gen      int64 // generation the daemon must be serving once drained
}

// runWorkload boots a daemon, drives one workload against it phase by
// phase, verifies every answer and returns the metrics. dir holds the
// daemon's state directory.
func runWorkload(ctx context.Context, boot booter, p plan, in *inputs, dir string) (*result, error) {
	r := &e2e{ctx: ctx, boot: boot, p: p, in: in, gen: 1,
		res: &result{E2E: map[string]float64{}, Counts: map[string]int64{}, Layer: map[string]float64{
			// Only a workload with an observe stream has a recovery phase.
			"feedback.restart_s": 0, "wal.records_replayed": 0, "wal.recover_ms": 0,
		}}}
	if p.observeRate > 0 {
		r.stateDir = filepath.Join(dir, "state")
	}
	defer func() {
		if r.t != nil {
			r.t.Kill()
		}
	}()
	steps := []func() error{r.setup, r.warm, r.measure, r.quality}
	if p.observeRate > 0 {
		steps = append(steps, r.recover)
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, err
		}
	}
	return r.res, nil
}

// phase runs fn as a named phase, timing it and filing its tally.
func (r *e2e) phase(name string, fn func(ph *phase) error) error {
	ph := &phase{Name: name}
	t0 := time.Now()
	err := fn(ph)
	ph.Seconds = time.Since(t0).Seconds()
	r.res.Phases = append(r.res.Phases, ph)
	return err
}

// start boots a daemon on the run's state directory and waits for the
// first /readyz 200, returning how long that took.
func (r *e2e) start() (float64, error) {
	t0 := time.Now()
	var err error
	if r.t, err = r.boot(r.stateDir); err != nil {
		return 0, err
	}
	if err := waitReady(r.ctx, r.t.URL()); err != nil {
		return 0, err
	}
	return time.Since(t0).Seconds(), nil
}

// setup boots the daemon cold several times back to back and keeps the
// last instance. One boot sample ranged over 1.8× on the development box;
// the median of a few does not.
func (r *e2e) setup() error {
	var boots []float64
	for i := 0; i < r.p.boots; i++ {
		if r.t != nil {
			r.t.Kill()
		}
		if r.stateDir != "" {
			if err := os.RemoveAll(r.stateDir); err != nil {
				return err
			}
		}
		s, err := r.start()
		if err != nil {
			return err
		}
		boots = append(boots, s)
	}
	r.res.E2E["setup_s"] = median(boots)
	r.predict = dial(r.t.URL(), r.p.conns)
	r.observe = dial(r.t.URL(), 1)
	var err error
	r.booted, err = takeScrape(r.ctx, r.t)
	return err
}

// warm fills the sliding window and the caches, untimed. The window goes in
// requests of one retrain interval each, so every retrain sees exactly the
// window it would have seen had the observes come one by one.
func (r *e2e) warm() error {
	p := r.p
	return r.phase("warm", func(ph *phase) error {
		if p.observeRate > 0 {
			var reqs []request
			for i := 0; i < p.window; i += p.retrainEvery {
				reqs = append(reqs, request{Obs: r.in.Observes[i:min(i+p.retrainEvery, p.window)]})
			}
			ph.add(drive(r.ctx, r.observe, reqs, false, time.Now()))
			r.gen += int64(p.window / p.retrainEvery)
			if err := r.drained(p.window); err != nil {
				ph.fail(err)
			}
		}
		ph.add(drive(r.ctx, r.predict, p.predictRequests(r.in, 0, p.warm), false, time.Now()))
		return nil
	})
}

// measure sends the fixed schedule and turns the samples, and the daemon's
// counters from before and after, into metrics.
func (r *e2e) measure() error {
	p := r.p
	return r.phase("measured", func(ph *phase) error {
		predicts := p.predictRequests(r.in, p.warm, p.predicts)
		observes := p.observeRequests(r.in)
		before, err := takeScrape(r.ctx, r.t)
		if err != nil {
			return err
		}
		selfBefore, err := procCPU(os.Getpid())
		if err != nil {
			return err
		}
		ref := startReference()
		start := time.Now()
		var obsSamples []sample
		var wg sync.WaitGroup
		if len(observes) > 0 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				obsSamples = drive(r.ctx, r.observe, observes, true, start)
			}()
		}
		samples := drive(r.ctx, r.predict, predicts, p.rate > 0, start)
		wall := time.Since(start).Seconds()
		wg.Wait()
		refUS, err := ref.Stop()
		if err != nil {
			return err
		}
		selfAfter, err := procCPU(os.Getpid())
		if err != nil {
			return err
		}
		ph.add(samples)
		ph.add(obsSamples)
		// The retrains the observe stream set off are part of the phase's
		// work: wait for them before reading the counters.
		gen0 := r.gen
		r.gen += int64(p.swaps())
		if p.observeRate > 0 {
			if err := r.drained(p.window + p.observes); err != nil {
				ph.fail(err)
			}
		}
		after, err := takeScrape(r.ctx, r.t)
		if err != nil {
			return err
		}

		inOrder := latenciesMS(samples)
		lat := sortedCopy(inOrder)
		queries := float64(len(lat) * p.batch) // correctly predicted
		within := sort.SearchFloat64s(lat, math.Nextafter(p.sloMs, math.Inf(1)))
		// CPU per query follows the host's speed of the minute on every
		// workload, and where the loop is closed — the cores, not a
		// schedule, set the pace — so do latency and throughput. They are
		// reported at the reference host speed (see host.go). Open-loop
		// latency is mostly the coalescer's 2 ms timer and stays as measured.
		atRef := refNominalUS / refUS
		rawCPU := float64(after.CPU-before.CPU) / 1e6 / queries
		p50, _ := percentile(lat, 0.50)
		r.res.ClientP50MS = p50
		e, l := r.res.E2E, r.res.Layer
		e["predict_p50_ms"] = p50
		e["throughput_qps"] = queries / wall
		if p.rate == 0 {
			e["predict_p50_ms"] *= atRef
			e["throughput_qps"] /= atRef
		}
		e["cpu_ms_per_query"] = rawCPU * atRef
		e["slo_share"] = float64(within) / float64(len(samples))
		e["rss_mb"] = after.RSSMB
		if l["predict_p99_ms"], err = windowedTail(inOrder, 0.99, p.minBeyond); err != nil {
			ph.fail(err)
		}
		l["host.ref_us"] = refUS
		l["host.cpu_ms_per_query_raw"] = rawCPU

		delta := func(name string) float64 { return float64(after.Counters[name] - before.Counters[name]) }
		l["core.plancache_hit_ratio"] = ratio(delta("core.plancache.hits"), delta("core.plancache.hits")+delta("core.plancache.misses"))
		l["core.projcache_hit_ratio"] = ratio(delta("core.projcache.hits"), delta("core.projcache.hits")+delta("core.projcache.misses"))
		l["parallel.for_calls_per_query"] = delta("parallel.for.calls") / queries
		bs0, bs1 := before.Histograms["serve.batch.size"], after.Histograms["serve.batch.size"]
		l["serve.batch_size_mean"] = ratio(bs1.Sum-bs0.Sum, float64(bs1.Count-bs0.Count))
		l["wal.fsyncs_per_observe"] = ratio(delta("wal.fsyncs"), float64(p.observes))
		l["wal.snapshots"] = delta("wal.snapshots")
		l["kcca.retrain_full_count"] = delta("kcca.retrain.full")
		l["kcca.retrain_incremental_count"] = delta("kcca.retrain.incremental")
		l["kernels.maintained_rebuilds"] = delta("kernels.maintained.rebuilds")
		l["runtime.mallocs_per_query"] = float64(after.Mem.Mallocs-before.Mem.Mallocs) / queries
		l["runtime.gc_pause_ms"] = float64(after.Mem.PauseTotalNs-before.Mem.PauseTotalNs) / 1e6
		l["runtime.num_gc"] = float64(after.Mem.NumGC - before.Mem.NumGC)
		l["loadgen.cpu_share"] = (selfAfter - selfBefore).Seconds() / wall
		l["loadgen.late_p99_ms"] = 0
		l["loadgen.valid"] = 1
		if p.rate > 0 {
			late := make([]float64, len(samples))
			for i := range samples {
				late[i] = float64(samples[i].Late) / 1e6
			}
			sort.Float64s(late)
			l["loadgen.late_p99_ms"], _ = percentile(late, 0.99)
			// A generator that runs this late is measuring itself.
			if l["loadgen.late_p99_ms"] > p.sloMs/2 {
				l["loadgen.valid"] = 0
			}
		}
		l["feedback.observe_p50_ms"], _ = percentile(sortedCopy(latenciesMS(obsSamples)), 0.50)
		l["feedback.swap_lag_mean_ms"] = swapLagMS(p, samples, obsSamples, gen0)

		c := r.res.Counts
		c["predict_samples"] = int64(len(lat))
		c["retrains_measured"] = int64(delta("kcca.retrain.full") + delta("kcca.retrain.incremental"))
		c["plancache_misses_measured"] = int64(delta("core.plancache.misses"))
		c["snapshots_since_boot"] = after.Counters["wal.snapshots"] - r.booted.Counters["wal.snapshots"]
		c["rejected_429_since_boot"] = after.Counters["serve.rejected.overload"] - r.booted.Counters["serve.rejected.overload"]
		c["generation"] = r.gen
		return nil
	})
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// latenciesMS is the successful samples' latencies in milliseconds, in
// schedule order.
func latenciesMS(samples []sample) []float64 {
	out := make([]float64, 0, len(samples))
	for i := range samples {
		if samples[i].Err == nil {
			out = append(out, float64(samples[i].Lat)/1e6)
		}
	}
	return out
}

// ask sends one verified predict outside any schedule.
func (r *e2e) ask(c *conn, ph *phase, sqls []string) *api.PredictResponse {
	ph.Sent++
	resp, err := c.client.Predict(r.ctx, sqls...)
	if err == nil {
		_, err = c.verify(resp, len(sqls))
	}
	if err != nil {
		ph.fail(err)
		return nil
	}
	ph.OK++
	return resp
}

// quality predicts held-out queries the daemon never trained on and
// compares them with what the simulator measured: the paper's "within 20%
// of actual" on elapsed time.
func (r *e2e) quality() error {
	return r.phase("quality", func(ph *phase) error {
		good := 0
		for i := 0; i < len(r.in.Heldout); i += 64 {
			chunk := r.in.Heldout[i:min(i+64, len(r.in.Heldout))]
			sqls := make([]string, len(chunk))
			for j, h := range chunk {
				sqls[j] = h.SQL
			}
			resp := r.ask(r.predict[0], ph, sqls)
			if resp == nil {
				continue
			}
			for j, h := range chunk {
				if math.Abs(resp.Results[j].Metrics.ElapsedSec-h.ElapsedSec) <= 0.2*h.ElapsedSec {
					good++
				}
			}
		}
		r.res.E2E["quality_within20"] = float64(good) / float64(len(r.in.Heldout))
		return nil
	})
}

// recover crashes the daemon, boots it on the same state and requires the
// same answers from the same or a later generation, after replaying
// exactly the WAL tail the schedule left behind the last snapshot.
func (r *e2e) recover() error {
	p := r.p
	return r.phase("recovery", func(ph *phase) error {
		probes := r.in.Hot[:p.probes]
		pre := r.ask(r.predict[0], ph, probes)
		r.t.Kill()
		s, err := r.start()
		if err != nil {
			return err
		}
		r.res.Layer["feedback.restart_s"] = s

		c := dial(r.t.URL(), 1)[0]
		if post := r.ask(c, ph, probes); pre != nil && post != nil {
			if err := sameAnswers(pre, post); err != nil {
				ph.OK--
				ph.fail(err)
			}
		}
		ph.Sent++
		info, err := c.client.Model(r.ctx)
		switch {
		case err != nil:
			ph.fail(err)
		case info.Recovery == nil || !info.Recovery.Recovered:
			ph.fail(errors.New("restarted daemon reports no recovery"))
		case info.Recovery.Replayed != int64(p.walTail()):
			ph.fail(fmt.Errorf("recovery replayed %d WAL records, the schedule leaves %d behind the snapshot", info.Recovery.Replayed, p.walTail()))
		default:
			ph.OK++
			r.res.Layer["wal.records_replayed"] = float64(info.Recovery.Replayed)
			r.res.Layer["wal.recover_ms"] = info.Recovery.ReplaySeconds * 1e3
			r.res.Counts["records_replayed"] = info.Recovery.Replayed
		}
		return nil
	})
}

// drained waits until the daemon has applied every observe sent so far: the
// core.sliding.observed counter has advanced by sent since boot, the
// observe queue is empty, and the retrains they trigger have all been
// swapped in, which shows as the served generation reaching r.gen.
func (r *e2e) drained(sent int) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		var snap struct {
			Counters map[string]int64 `json:"counters"`
			Gauges   map[string]int64 `json:"gauges"`
		}
		if err := getJSON(r.ctx, r.t.URL()+"/metrics", &snap); err != nil {
			return err
		}
		var model struct {
			Model api.ModelInfo `json:"model"`
		}
		if err := getJSON(r.ctx, r.t.URL()+"/v1/model", &model); err != nil {
			return err
		}
		observed := int(snap.Counters["core.sliding.observed"] - r.booted.Counters["core.sliding.observed"])
		gen := model.Model.Generation
		if observed == sent && gen == r.gen && snap.Gauges["serve.observe.queue_depth"] == 0 {
			return nil
		}
		if observed > sent || gen > r.gen {
			return fmt.Errorf("daemon observed %d and serves generation %d, the schedule sent %d for generation %d", observed, gen, sent, r.gen)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("observe backlog not drained after 60s: observed %d of %d, generation %d of %d", observed, sent, gen, r.gen)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// swapLagMS is the mean, over the measured phase's swaps, of the time from
// the ack of the observe that completes a retrain interval to the first
// predict response that carries the generation it produces. Mean rather
// than median: the few samples are bimodal (full against incremental
// retrain).
func swapLagMS(p plan, predicts, observes []sample, gen0 int64) float64 {
	var lags []float64
	for k := 1; k <= p.swaps(); k++ {
		ack := observes[k*p.retrainEvery-1]
		if ack.Err != nil {
			continue
		}
		var first time.Time
		for i := range predicts {
			s := &predicts[i]
			if s.Err == nil && s.Gen >= gen0+int64(k) && (first.IsZero() || s.Done.Before(first)) {
				first = s.Done
			}
		}
		if !first.IsZero() {
			lags = append(lags, float64(first.Sub(ack.Done))/1e6)
		}
	}
	return mean(lags)
}

// sameAnswers requires two predict responses to agree bit for bit on every
// prediction, with no generation going backwards.
func sameAnswers(pre, post *api.PredictResponse) error {
	for i := range pre.Results {
		a, b := pre.Results[i], post.Results[i]
		if *a.Metrics != *b.Metrics || a.Category != b.Category || a.Confidence != b.Confidence {
			return fmt.Errorf("probe %d answered differently after the crash: %+v then %+v", i, *a.Metrics, *b.Metrics)
		}
		if b.Generation < a.Generation {
			return fmt.Errorf("probe %d: generation %d before the crash, %d after", i, a.Generation, b.Generation)
		}
	}
	return nil
}
