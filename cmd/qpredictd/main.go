// Command qpredictd is the online prediction service: the paper's Fig. 1
// vendor-trains / customer-predicts workflow as a long-running daemon. It
// trains (or loads) a performance predictor at boot, then serves JSON
// predictions over HTTP, micro-batching concurrent requests into batches
// predicted one query per core and hot-swapping in background retrains fed by
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
// the corresponding config field.
//
// Every daemon serves through one engine, a router over -shards N shards
// (internal/shard). The stock daemon runs one shard, which everything routes
// to; with N > 1 traffic is partitioned across N per-shard sliding
// predictors by consistent hashing of the template fingerprint, each with
// its own coalescer, generation, and background retrain loop. GET /v1/shards
// exposes the per-shard state either way.
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
	"io"
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
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/wal"
	"repro/internal/workload"
	"repro/pkg/qpredict"
)

func main() {
	opts, timings, err := loadOptions(flag.CommandLine, os.Args[1:], os.Stderr)
	if err != nil {
		cli.Fatalf("%v", err)
	}
	if timings {
		cli.AtExit(func() { fmt.Fprint(os.Stderr, "\n"+obs.TimingsTable()) })
	}
	svc, modelDesc, err := boot(opts, os.Stderr)
	if err != nil {
		cli.Fatalf("%v", err)
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
	fmt.Printf("qpredictd serving on http://%s (%s)\n", ln.Addr(), modelDesc)

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	// Boot training and any retrains a WAL replay ran are over: hand their
	// working set back to the OS. The listener already answers, so
	// readiness never waits for this.
	fmt.Fprintf(os.Stderr, "returned %.1f MB of training memory to the OS\n", float64(shard.ReleaseMemory())/(1<<20))

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

// bindFlags declares the daemon's flags on fs, each bound to the field of o
// it sets and defaulting to the value o holds, so parsing a command line
// writes the options themselves. -config and -timings are not options of the
// service and come back as their own values.
func bindFlags(fs *flag.FlagSet, o *qpredict.Options) (cfgPath *string, timings *bool) {
	cfgPath = fs.String("config", "", "JSON options file (pkg/qpredict Options; explicitly set flags override it)")
	timings = fs.Bool("timings", false, "print the per-stage timing table on exit")
	fs.StringVar(&o.Serve.Addr, "addr", o.Serve.Addr, "listen address (use :0 for an ephemeral port)")
	fs.IntVar(&o.Train.Count, "train", o.Train.Count, "training workload size (ignored with -load)")
	fs.Int64Var(&o.Train.Seed, "seed", o.Train.Seed, "workload seed")
	fs.Int64Var(&o.Train.DataSeed, "dataseed", o.Train.DataSeed, "data realization seed")
	fs.StringVar(&o.Train.Machine, "machine", o.Train.Machine, "machine: research4 or prod32:<cpus>")
	fs.BoolVar(&o.Train.TwoStep, "twostep", o.Train.TwoStep, "use two-step (query-type-specific) prediction")
	fs.StringVar(&o.Train.Load, "load", o.Train.Load, "load a previously saved model instead of training")
	fs.DurationVar((*time.Duration)(&o.Serve.Window), "window", o.Serve.Window.Std(), "micro-batch hold window: non-zero holds an idle engine's first arrival this long for more to batch with (0 dispatches at once and batches only what queued behind the previous batch)")
	fs.IntVar(&o.Serve.MaxBatch, "max-batch", o.Serve.MaxBatch, "micro-batch size cap")
	fs.IntVar(&o.Serve.QueueCap, "queue", o.Serve.QueueCap, "pending-query queue bound per shard (beyond it requests get 429)")
	fs.DurationVar((*time.Duration)(&o.Serve.Timeout), "timeout", o.Serve.Timeout.Std(), "per-request prediction deadline")
	fs.IntVar(&o.Sliding.Capacity, "capacity", o.Sliding.Capacity, "sliding retraining window capacity")
	fs.IntVar(&o.Sliding.RetrainEvery, "retrain-every", o.Sliding.RetrainEvery, "observations between background retrains (at most -capacity)")
	fs.DurationVar((*time.Duration)(&o.Serve.DrainTimeout), "drain-timeout", o.Serve.DrainTimeout.Std(), "graceful shutdown deadline")
	fs.IntVar(&o.Shards.Count, "shards", o.Shards.Count, "shards the serving tier runs, each with its own model, queue and retrain loop (0 and 1 both run one)")
	fs.StringVar(&o.State.Dir, "state-dir", o.State.Dir, "durable state directory (observation WAL + model snapshots, one subdirectory per shard); a restart recovers the serving state from it")
	fs.StringVar(&o.State.Fsync, "fsync", o.State.Fsync, "WAL fsync policy with -state-dir: always, batch, or none")
	fs.IntVar(&o.State.FsyncEvery, "fsync-every", o.State.FsyncEvery, "appends between fsyncs with -fsync batch")
	fs.IntVar(&o.State.SnapshotEvery, "snapshot-every", o.State.SnapshotEvery, "applied observations between state snapshots with -state-dir")
	fs.IntVar(&o.Serve.PlanCache, "plan-cache", o.Serve.PlanCache, "plan/feature cache entries (0 = built-in default, negative disables caching)")
	return cfgPath, timings
}

// loadOptions resolves the daemon's options from a command line: the
// defaults, the -config file over them, and the explicitly set flags over
// that. Each override of the file is reported once on stderr so a drifting
// wrapper script is visible.
func loadOptions(fs *flag.FlagSet, args []string, stderr io.Writer) (opts qpredict.Options, timings bool, err error) {
	opts = qpredict.Default()
	cfgPath, timingsFlag := bindFlags(fs, &opts)
	if err = fs.Parse(args); err != nil {
		return opts, false, err
	}
	if *cfgPath != "" {
		// The file replaces what the first parse wrote into opts; parsing the
		// same arguments again puts the flags that were given back on top.
		if opts, err = qpredict.LoadFile(*cfgPath); err != nil {
			return opts, false, err
		}
		if err = fs.Parse(args); err != nil {
			return opts, false, err
		}
		var overridden []string
		fs.Visit(func(f *flag.Flag) {
			if f.Name != "config" && f.Name != "timings" {
				overridden = append(overridden, "-"+f.Name)
			}
		})
		if len(overridden) > 0 {
			fmt.Fprintf(stderr, "note: %s override %s (flags beat config; move them into the file to silence this)\n",
				strings.Join(overridden, " "), *cfgPath)
		}
	}
	return opts, *timingsFlag, opts.Validate()
}

// boot turns validated options into a running service: recover or train the
// model, build the router, wrap it in the HTTP adapter. Progress goes to
// logw; modelDesc says where the served model came from. On an error
// whatever was opened so far is left to the exiting process.
func boot(opts qpredict.Options, logw io.Writer) (svc *serve.Server, modelDesc string, err error) {
	machine, err := exec.ParseMachine(opts.Train.Machine)
	if err != nil {
		return nil, "", err
	}
	// Which arithmetic path serves decides cpu_ms_per_query more than any
	// option does; say it once so two hosts' numbers can be told apart.
	switch {
	case linalg.VectorExp():
		fmt.Fprintln(logw, "linalg kernels: AVX2, exp four lanes (FMA)")
	case linalg.VectorKernels():
		fmt.Fprintln(logw, "linalg kernels: AVX2, exp per element (math.Exp not on its FMA branch here)")
	default:
		fmt.Fprintln(logw, "linalg kernels: portable (no AVX2 on this host)")
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
		fmt.Fprintf(logw, "plan cache: %d entries\n", planner.Cap())
	} else {
		fmt.Fprintln(logw, "plan cache: disabled")
	}

	// Partition layout first: it decides the per-shard window knobs durable
	// state must be recovered under. They divide the daemon's budget so the
	// fleet-wide totals hold (Validate keeps retrain_every within capacity
	// and the shard count within capacity/5, so no share is raised to the
	// floor of 5); one shard gets the budget as it is. One shard routes
	// everything to itself, so it gets the partitioner that computes
	// nothing, and its manifest names none; more route by hash.
	nShards := max(1, opts.Shards.Count)
	partCap := max(5, opts.Sliding.Capacity/nShards)
	partEvery := max(1, opts.Sliding.RetrainEvery/nShards)
	var part shard.Partitioner = shard.Passthrough{}
	manifestPart := "none"
	if nShards > 1 {
		part = shard.NewHashPartitioner(nShards, opt.Features)
		manifestPart = part.Name()
	}

	// Each shard's window: fresh, or — with durable state — its WAL opened
	// (and repaired), the newest snapshot installed and the tail replayed
	// before serving starts. A shard that recovers a model skips boot
	// training; when all do, nothing is trained. A recovered generation is
	// not enough: a snapshot taken before the window's first retrain records
	// the boot model's generation but not the model.
	cfgs := make([]shard.ShardConfig, nShards)
	durable := opts.State.Dir != ""
	allWarm := durable
	var policy wal.SyncPolicy
	if durable {
		if policy, err = wal.ParseSyncPolicy(opts.State.Fsync); err != nil {
			return nil, "", err
		}
		if err = wal.CheckManifest(opts.State.Dir, wal.Manifest{
			Shards:       nShards,
			Partitioner:  manifestPart,
			Capacity:     opts.Sliding.Capacity,
			RetrainEvery: opts.Sliding.RetrainEvery,
		}); err != nil {
			return nil, "", err
		}
	}
	for i := range cfgs {
		sc := &cfgs[i]
		if !durable {
			if sc.Sliding, err = core.NewSliding(partCap, partEvery, opt); err != nil {
				return nil, "", fmt.Errorf("sliding window: %w", err)
			}
			continue
		}
		sc.Store, err = wal.OpenStore(wal.StoreOptions{
			Dir:           filepath.Join(opts.State.Dir, fmt.Sprintf("shard-%d", i)),
			Policy:        policy,
			SyncEvery:     opts.State.FsyncEvery,
			SnapshotEvery: opts.State.SnapshotEvery,
			Plan:          planner.Plan,
		})
		if err != nil {
			return nil, "", fmt.Errorf("opening state for shard %d: %w", i, err)
		}
		if sc.Sliding, sc.BootGen, err = sc.Store.Recover(partCap, partEvery, opt); err != nil {
			return nil, "", fmt.Errorf("recovering state for shard %d: %w", i, err)
		}
		if info := sc.Store.Info(); info.Recovered {
			fmt.Fprintf(logw, "shard %d: recovered snapshot seq %d, replayed %d records in %.3fs (generation %d)\n",
				i, info.SnapshotSeq, info.Replayed, info.ReplaySeconds, sc.BootGen)
			if info.TornTail {
				fmt.Fprintf(logw, "shard %d: torn WAL tail repaired, %d bytes truncated\n", i, info.TruncatedBytes)
			}
		}
		allWarm = allWarm && sc.Sliding.Ready()
	}

	var predictor *core.Predictor
	if allWarm {
		fmt.Fprintf(logw, "recovered %d warm partition(s) from %s; skipping boot training\n", nShards, opts.State.Dir)
	} else if opts.Train.Load != "" {
		f, err := os.Open(opts.Train.Load)
		if err != nil {
			return nil, "", fmt.Errorf("opening model: %w", err)
		}
		predictor, err = core.Load(f)
		f.Close()
		if err != nil {
			return nil, "", fmt.Errorf("loading model: %w", err)
		}
		fmt.Fprintf(logw, "loaded model trained on %d queries\n", predictor.N())
	} else {
		fmt.Fprintf(logw, "generating %d training queries on %s...\n", opts.Train.Count, machine)
		pool, err := dataset.Generate(dataset.GenConfig{
			Seed:      opts.Train.Seed,
			DataSeed:  opts.Train.DataSeed,
			Machine:   machine,
			Schema:    schema,
			Templates: workload.TPCDSTemplates(),
			Count:     opts.Train.Count,
		})
		if err != nil {
			return nil, "", fmt.Errorf("generating training workload: %w", err)
		}
		fmt.Fprintln(logw, "training KCCA model...")
		if predictor, err = core.Train(pool.Queries, opt); err != nil {
			return nil, "", fmt.Errorf("training: %w", err)
		}
	}
	modelDesc = "model: recovered from state"
	if predictor != nil {
		modelDesc = fmt.Sprintf("model: %d queries", predictor.N())
	}

	for i := range cfgs {
		sc := &cfgs[i]
		// A shard that did not recover a model boots from the shared trained
		// model, then diverges as its own observations arrive — at the
		// generation it held before the restart when it recovered one; a
		// recovered model keeps serving at its generation.
		if !sc.Sliding.Ready() {
			sc.Boot = predictor
		}
	}
	router, err := shard.NewRouter(cfgs, part, shard.Config{
		Window:   opts.Serve.Window.Std(),
		MaxBatch: opts.Serve.MaxBatch,
		QueueCap: opts.Serve.QueueCap,
	}, true)
	if err != nil {
		return nil, "", fmt.Errorf("shard router: %w", err)
	}
	if nShards > 1 {
		fmt.Fprintf(logw, "sharded tier: %d shards, %s partitioner, per-shard window %d\n",
			nShards, part.Name(), partCap)
	}
	svc, err = serve.New(serve.Config{
		Router:   router,
		Schema:   schema,
		Machine:  machine,
		DataSeed: opts.Train.DataSeed,
		Plans:    planner,
		Timeout:  opts.Serve.Timeout.Std(),
	})
	if err != nil {
		return nil, "", fmt.Errorf("starting service: %w", err)
	}
	return svc, modelDesc, nil
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
