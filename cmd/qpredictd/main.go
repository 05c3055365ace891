// Command qpredictd is the online prediction service: the paper's Fig. 1
// vendor-trains / customer-predicts workflow as a long-running daemon. It
// trains (or loads) a performance predictor at boot, then serves JSON
// predictions over HTTP, micro-batching concurrent requests through the
// shared worker pool and hot-swapping in background retrains fed by
// /v1/observe execution feedback. See docs/API.md for the wire schema.
//
// Usage:
//
//	qpredictd -addr :8080 -train 800
//	qpredictd -addr :8080 -load model.bin -capacity 500 -retrain-every 100
//	qpredictd -config qpredictd.json
//
//	curl -s localhost:8080/v1/predict -d '{"sql": "SELECT COUNT(*) FROM store_sales"}'
//
// -config loads a qpredict.Options JSON file (example under
// examples/config/); any flag explicitly set on the command line overrides
// the corresponding config field. With challengers configured
// (champion.challengers in the config, or -challengers) the daemon runs
// the model zoo: every observation shadow-scores each challenger model
// kind against the champion, and a challenger that dominates on windowed
// relative error is promoted through the ordinary generation hot-swap.
//
// With -shards N the daemon runs the sharded multi-model tier instead of a
// single model: traffic is partitioned across N per-shard sliding
// predictors (-partitioner picks the policy, hash or category), each with
// its own coalescer, generation, and background retrain loop, and GET
// /v1/shards exposes the per-shard state. -shards 1 is byte-identical to
// the unsharded daemon on the wire.
//
// Endpoints: /v1/predict, /v1/observe, /v1/model, /v1/shards, /healthz,
// /readyz, plus the observability surface (/metrics, /timings,
// /debug/pprof) on the same listener. SIGINT/SIGTERM drain gracefully: the
// listener stops accepting, in-flight micro-batches and queued
// observations finish, then the process exits through the shared cleanup
// path (which also flushes -timings).
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/catalog"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/linalg"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/wal"
	"repro/internal/workload"
	"repro/pkg/qpredict"
)

func main() {
	def := qpredict.Default()
	cfgPath := flag.String("config", "", "JSON options file (pkg/qpredict Options; explicitly set flags override it)")
	addr := flag.String("addr", def.Serve.Addr, "listen address (use :0 for an ephemeral port)")
	trainCount := flag.Int("train", def.Train.Count, "training workload size (ignored with -load)")
	seed := flag.Int64("seed", def.Train.Seed, "workload seed")
	dataSeed := flag.Int64("dataseed", def.Train.DataSeed, "data realization seed")
	machineName := flag.String("machine", def.Train.Machine, "machine: research4 or prod32:<cpus>")
	twoStep := flag.Bool("twostep", def.Train.TwoStep, "use two-step (query-type-specific) prediction")
	loadFrom := flag.String("load", "", "load a previously saved model instead of training")
	window := flag.Duration("window", def.Serve.Window.Std(), "micro-batch hold window: non-zero holds an idle engine's first arrival this long for more to batch with (0 dispatches at once and batches only what queued behind the previous batch)")
	maxBatch := flag.Int("max-batch", def.Serve.MaxBatch, "micro-batch size cap")
	queueCap := flag.Int("queue", def.Serve.QueueCap, "pending-query queue bound (beyond it requests get 429)")
	timeout := flag.Duration("timeout", def.Serve.Timeout.Std(), "per-request prediction deadline")
	capacity := flag.Int("capacity", def.Sliding.Capacity, "sliding retraining window capacity")
	retrainEvery := flag.Int("retrain-every", def.Sliding.RetrainEvery, "observations between background retrains")
	drainTimeout := flag.Duration("drain-timeout", def.Serve.DrainTimeout.Std(), "graceful shutdown deadline")
	timings := flag.Bool("timings", false, "print the per-stage timing table on exit")
	shards := flag.Int("shards", def.Shards.Count, "run the sharded multi-model tier with N shards (0 = single model)")
	partitioner := flag.String("partitioner", def.Shards.Partitioner, "shard routing policy: hash or category (with -shards)")
	stateDir := flag.String("state-dir", def.State.Dir, "durable state directory (observation WAL + model snapshots, one subdirectory per shard); a restart recovers the serving state from it")
	fsyncPolicy := flag.String("fsync", def.State.Fsync, "WAL fsync policy with -state-dir: always, batch, or none")
	fsyncEvery := flag.Int("fsync-every", def.State.FsyncEvery, "appends between fsyncs with -fsync batch")
	snapshotEvery := flag.Int("snapshot-every", def.State.SnapshotEvery, "applied observations between state snapshots with -state-dir")
	planCache := flag.Int("plan-cache", def.Serve.PlanCache, "plan/feature cache entries (0 = built-in default, negative disables caching)")
	champion := flag.String("champion", def.Champion.Kind, "initial champion model kind (kcca, planstruct, optcost)")
	challengers := flag.String("challengers", "", "comma-separated challenger model kinds to shadow-score (enables the model zoo)")
	flag.Parse()

	opts := def
	if *cfgPath != "" {
		var err error
		opts, err = qpredict.LoadFile(*cfgPath)
		if err != nil {
			cli.Fatalf("%v", err)
		}
	}
	// Explicitly set flags override the config file; each override is
	// reported once so a drifting wrapper script is visible.
	var overridden []string
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "addr":
			opts.Serve.Addr = *addr
		case "train":
			opts.Train.Count = *trainCount
		case "seed":
			opts.Train.Seed = *seed
		case "dataseed":
			opts.Train.DataSeed = *dataSeed
		case "machine":
			opts.Train.Machine = *machineName
		case "twostep":
			opts.Train.TwoStep = *twoStep
		case "load":
			opts.Train.Load = *loadFrom
		case "window":
			opts.Serve.Window = qpredict.Duration(*window)
		case "max-batch":
			opts.Serve.MaxBatch = *maxBatch
		case "queue":
			opts.Serve.QueueCap = *queueCap
		case "timeout":
			opts.Serve.Timeout = qpredict.Duration(*timeout)
		case "capacity":
			opts.Sliding.Capacity = *capacity
		case "retrain-every":
			opts.Sliding.RetrainEvery = *retrainEvery
		case "drain-timeout":
			opts.Serve.DrainTimeout = qpredict.Duration(*drainTimeout)
		case "shards":
			opts.Shards.Count = *shards
		case "partitioner":
			opts.Shards.Partitioner = *partitioner
		case "state-dir":
			opts.State.Dir = *stateDir
		case "fsync":
			opts.State.Fsync = *fsyncPolicy
		case "fsync-every":
			opts.State.FsyncEvery = *fsyncEvery
		case "snapshot-every":
			opts.State.SnapshotEvery = *snapshotEvery
		case "plan-cache":
			opts.Serve.PlanCache = *planCache
		case "champion":
			opts.Champion.Kind = *champion
		case "challengers":
			opts.Champion.Challengers = nil
			for _, k := range strings.Split(*challengers, ",") {
				if k = strings.TrimSpace(k); k != "" {
					opts.Champion.Challengers = append(opts.Champion.Challengers, k)
				}
			}
		default:
			return
		}
		if *cfgPath != "" {
			overridden = append(overridden, "-"+f.Name)
		}
	})
	if len(overridden) > 0 {
		fmt.Fprintf(os.Stderr, "note: %s override %s (flags beat config; move them into the file to silence this)\n",
			strings.Join(overridden, " "), *cfgPath)
	}
	if err := opts.Validate(); err != nil {
		cli.Fatalf("%v", err)
	}

	if *timings {
		obs.SetEnabled(true)
		cli.AtExit(func() { fmt.Fprint(os.Stderr, "\n"+obs.TimingsTable()) })
	}

	machine, err := exec.ParseMachine(opts.Train.Machine)
	if err != nil {
		cli.Fatalf("%v", err)
	}
	// Which arithmetic path serves decides cpu_ms_per_query more than any
	// option does; say it once so two hosts' numbers can be told apart.
	if linalg.VectorKernels() {
		fmt.Fprintln(os.Stderr, "linalg kernels: AVX2")
	} else {
		fmt.Fprintln(os.Stderr, "linalg kernels: portable (no AVX2 on this host)")
	}
	schema := catalog.TPCDS(1)
	opt := core.DefaultOptions()
	opt.TwoStep = opts.Train.TwoStep

	// One plan/feature cache serves every SQL-planning consumer in the
	// process — the predict handlers, the observe path, and WAL replay —
	// so a query seen on any of them is planned once. Generation-free
	// keying (plans depend only on schema, data seed, and machine, all
	// fixed for the process) means hot swaps never invalidate it.
	planner := serve.NewPlanner(schema, opts.Train.DataSeed, machine, opts.Serve.PlanCache)
	if planner.Enabled() {
		fmt.Fprintf(os.Stderr, "plan cache: %d entries\n", planner.Cap())
	} else {
		fmt.Fprintln(os.Stderr, "plan cache: disabled")
	}

	// Champion/challenger operation rides on the shard tier (the zoo hangs
	// off each shard's observe loop), so a zoo-enabled unsharded daemon
	// quietly runs the single-shard router — byte-identical on the wire.
	nShards := opts.Shards.Count
	zooOn := opts.Champion.Enabled()
	if zooOn && nShards == 0 {
		nShards = 1
	}

	// Partition layout first (it decides the per-partition window knobs
	// durable state must be recovered under). Per-shard knobs divide the
	// single-model budget so the fleet-wide totals match: with one shard
	// this reduces exactly to the unsharded values, keeping the
	// single-shard daemon byte-identical.
	nPart := 1
	partCap, partEvery := opts.Sliding.Capacity, opts.Sliding.RetrainEvery
	var part shard.Partitioner
	if nShards > 0 {
		nPart = nShards
		partCap = max(5, opts.Sliding.Capacity/nShards)
		partEvery = max(1, opts.Sliding.RetrainEvery/nShards)
		if partEvery > partCap {
			partEvery = partCap
		}
		part, err = shard.NewPartitioner(opts.Shards.Partitioner, nShards, opt.Features)
		if err != nil {
			cli.Fatalf("%v", err)
		}
	}

	// Durable state: open (and repair) each partition's WAL, install the
	// newest snapshot, and replay the tail before serving starts. A
	// partition that recovers a model skips boot training entirely.
	var stores []*wal.Store
	var slidings []*core.SlidingPredictor
	var bootGens []int64
	allWarm := false
	if opts.State.Dir != "" {
		policy, err := wal.ParseSyncPolicy(opts.State.Fsync)
		if err != nil {
			cli.Fatalf("%v", err)
		}
		partName := "none"
		if part != nil {
			partName = part.Name()
		}
		if err := wal.CheckManifest(opts.State.Dir, wal.Manifest{
			Shards:       nPart,
			Partitioner:  partName,
			Capacity:     opts.Sliding.Capacity,
			RetrainEvery: opts.Sliding.RetrainEvery,
		}); err != nil {
			cli.Fatalf("%v", err)
		}
		plan := planner.Plan
		allWarm = true
		for i := 0; i < nPart; i++ {
			st, err := wal.OpenStore(wal.StoreOptions{
				Dir:           filepath.Join(opts.State.Dir, fmt.Sprintf("shard-%d", i)),
				Policy:        policy,
				SyncEvery:     opts.State.FsyncEvery,
				SnapshotEvery: opts.State.SnapshotEvery,
				Plan:          plan,
			})
			if err != nil {
				cli.Fatalf("opening state for shard %d: %v", i, err)
			}
			sl, gen, err := st.Recover(partCap, partEvery, opt)
			if err != nil {
				cli.Fatalf("recovering state for shard %d: %v", i, err)
			}
			if info := st.Info(); info.Recovered {
				fmt.Fprintf(os.Stderr, "shard %d: recovered snapshot seq %d, replayed %d records in %.3fs (generation %d)\n",
					i, info.SnapshotSeq, info.Replayed, info.ReplaySeconds, gen)
				if info.TornTail {
					fmt.Fprintf(os.Stderr, "shard %d: torn WAL tail repaired, %d bytes truncated\n", i, info.TruncatedBytes)
				}
			}
			stores = append(stores, st)
			slidings = append(slidings, sl)
			bootGens = append(bootGens, gen)
			if gen == 0 {
				allWarm = false
			}
		}
	}

	var predictor *core.Predictor
	var pool *dataset.Dataset
	if allWarm {
		fmt.Fprintf(os.Stderr, "recovered %d warm partition(s) from %s; skipping boot training\n", nPart, opts.State.Dir)
	} else if opts.Train.Load != "" {
		f, err := os.Open(opts.Train.Load)
		if err != nil {
			cli.Fatalf("opening model: %v", err)
		}
		predictor, err = core.Load(f)
		f.Close()
		if err != nil {
			cli.Fatalf("loading model: %v", err)
		}
		fmt.Fprintf(os.Stderr, "loaded model trained on %d queries\n", predictor.N())
	} else {
		fmt.Fprintf(os.Stderr, "generating %d training queries on %s...\n", opts.Train.Count, machine)
		pool, err = dataset.Generate(dataset.GenConfig{
			Seed:      opts.Train.Seed,
			DataSeed:  opts.Train.DataSeed,
			Machine:   machine,
			Schema:    schema,
			Templates: workload.TPCDSTemplates(),
			Count:     opts.Train.Count,
		})
		if err != nil {
			cli.Fatalf("generating training workload: %v", err)
		}
		fmt.Fprintln(os.Stderr, "training KCCA model...")
		predictor, err = core.Train(pool.Queries, opt)
		if err != nil {
			cli.Fatalf("training: %v", err)
		}
	}

	// With the zoo on, every configured kind gets a seed model trained on
	// the same boot pool, so challengers shadow-score from the first
	// observation instead of waiting for their first window retrain. A
	// kind whose boot training fails just starts cold.
	var seeds map[string]model.Model
	if zooOn {
		seeds = map[string]model.Model{}
		if predictor != nil {
			seeds[model.KindKCCA] = model.WrapKCCA(predictor)
		}
		if pool != nil {
			for _, kind := range append([]string{opts.Champion.Kind}, opts.Champion.Challengers...) {
				if seeds[kind] != nil {
					continue
				}
				tr, err := model.NewTrainer(kind, opt)
				if err != nil {
					cli.Fatalf("%v", err)
				}
				m, err := tr.Train(pool.Queries)
				if err != nil {
					fmt.Fprintf(os.Stderr, "boot training %s model: %v (kind starts cold)\n", kind, err)
					continue
				}
				seeds[kind] = m
			}
		}
	}

	svcCfg := serve.Config{
		Schema:   schema,
		Machine:  machine,
		DataSeed: opts.Train.DataSeed,
		Plans:    planner,
		Window:   opts.Serve.Window.Std(),
		MaxBatch: opts.Serve.MaxBatch,
		QueueCap: opts.Serve.QueueCap,
		Timeout:  opts.Serve.Timeout.Std(),
	}
	if nShards > 0 {
		cfgs := make([]shard.ShardConfig, nShards)
		for i := range cfgs {
			sl := (*core.SlidingPredictor)(nil)
			if slidings != nil {
				sl = slidings[i]
			} else {
				var err error
				sl, err = core.NewSliding(partCap, partEvery, opt)
				if err != nil {
					cli.Fatalf("sliding window: %v", err)
				}
			}
			sc := shard.ShardConfig{Sliding: sl}
			if stores != nil {
				sc.Store = stores[i]
				sc.BootGen = bootGens[i]
			}
			// A shard that did not recover a model boots from the shared
			// trained model, then diverges as its own observations arrive;
			// a recovered shard keeps serving its own model at the
			// generation it held before the restart.
			if sc.BootGen == 0 {
				sc.Boot = predictor
			}
			if zooOn {
				zc := &shard.ZooConfig{
					Champion:    opts.Champion.Kind,
					Challengers: opts.Champion.Challengers,
					Seeds:       seeds,
					Policy:      opts.Champion.Policy(),
					Opt:         opt,
				}
				// A durably recorded promotion outlives the process: the
				// shard restarts under the champion it had promoted to.
				if stores != nil {
					if k := stores[i].ChampionKind(); k != "" {
						zc.Champion = k
					}
				}
				sc.Zoo = zc
			}
			cfgs[i] = sc
		}
		router, err := shard.NewRouter(cfgs, part, shard.Config{
			Window:   opts.Serve.Window.Std(),
			MaxBatch: opts.Serve.MaxBatch,
			QueueCap: opts.Serve.QueueCap,
		}, true)
		if err != nil {
			cli.Fatalf("shard router: %v", err)
		}
		svcCfg.Router = router
		if nShards > 1 {
			fmt.Fprintf(os.Stderr, "sharded tier: %d shards, %s partitioner, per-shard window %d\n",
				nShards, part.Name(), partCap)
		}
		if zooOn {
			fmt.Fprintf(os.Stderr, "model zoo: champion %s, challengers %v (margin %.0f%%, hysteresis %d)\n",
				opts.Champion.Kind, opts.Champion.Challengers, opts.Champion.Margin*100, opts.Champion.Hysteresis)
		}
	} else {
		sliding := (*core.SlidingPredictor)(nil)
		if slidings != nil {
			sliding = slidings[0]
		} else {
			var err error
			sliding, err = core.NewSliding(opts.Sliding.Capacity, opts.Sliding.RetrainEvery, opt)
			if err != nil {
				cli.Fatalf("sliding window: %v", err)
			}
		}
		svcCfg.Sliding = sliding
		if stores != nil {
			svcCfg.Store = stores[0]
			svcCfg.BootGen = bootGens[0]
		}
		if svcCfg.BootGen == 0 {
			svcCfg.Predictor = predictor
		}
	}
	svc, err := serve.New(svcCfg)
	if err != nil {
		cli.Fatalf("starting service: %v", err)
	}
	// The drain is an exit hook, so every exit route — signal, Fatalf, or
	// normal return — finishes in-flight work before the process dies.
	cli.AtExit(svc.Close)

	mux := http.NewServeMux()
	mux.Handle("/", svc.Handler())
	oh := obs.Handler()
	mux.Handle("/metrics", oh)
	mux.Handle("/timings", oh)
	mux.Handle("/debug/", oh)

	ln, err := net.Listen("tcp", opts.Serve.Addr)
	if err != nil {
		cli.Fatalf("listening on %s: %v", opts.Serve.Addr, err)
	}
	httpSrv := newHTTPServer(mux, readHeaderTimeout)
	modelDesc := "model: recovered from state"
	if predictor != nil {
		modelDesc = fmt.Sprintf("model: %d queries", predictor.N())
	}
	fmt.Printf("qpredictd serving on http://%s (%s)\n", ln.Addr(), modelDesc)

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "signal received, draining...")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), opts.Serve.DrainTimeout.Std())
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			fmt.Fprintf(os.Stderr, "shutdown: %v\n", err)
		}
		cli.Exit(0)
	case err := <-errc:
		cli.Fatalf("server: %v", err)
	}
}

// Connection timeouts of the daemon's listener. A client gets
// readHeaderTimeout to deliver a request's header once its first byte has
// arrived, and a kept-alive connection may sit idle between requests for
// idleTimeout; a connection that trickles or goes quiet is closed instead of
// holding a goroutine and a descriptor for good. Bodies are bounded in size
// (Serve.MaxBody) and handlers by the per-request deadline.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 120 * time.Second
)

// newHTTPServer builds the daemon's http.Server around its handler. The
// header timeout is a parameter only so that a test can shorten it.
func newHTTPServer(h http.Handler, headerTimeout time.Duration) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: headerTimeout, IdleTimeout: idleTimeout}
}
