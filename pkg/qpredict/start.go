package qpredict

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/linalg"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/wal"
	"repro/internal/workload"
)

// TrainFlags declares the train block's flags on fs, each bound to the field
// of o it sets and defaulting to the value o holds. qpredict and qpredictd
// both bind it.
func TrainFlags(fs *flag.FlagSet, o *Options) {
	fs.IntVar(&o.Train.Count, "train", o.Train.Count, "training workload size (ignored with -load)")
	fs.Int64Var(&o.Train.Seed, "seed", o.Train.Seed, "workload seed")
	fs.Int64Var(&o.Train.DataSeed, "dataseed", o.Train.DataSeed, "data realization seed")
	fs.StringVar(&o.Train.Machine, "machine", o.Train.Machine, "machine: research4 or prod32:<cpus>")
	fs.BoolVar(&o.Train.TwoStep, "twostep", o.Train.TwoStep, "use two-step (query-type-specific) prediction")
	fs.StringVar(&o.Train.Load, "load", o.Train.Load, "load a previously saved model instead of training")
}

// DaemonFlags declares the flags of the serve, sliding, shards and state
// blocks on fs, bound to o as TrainFlags binds the train block.
func DaemonFlags(fs *flag.FlagSet, o *Options) {
	fs.StringVar(&o.Serve.Addr, "addr", o.Serve.Addr, "listen address (use :0 for an ephemeral port)")
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
}

// Parse resolves a command's Options from its command line in three layers:
// Default, then the JSON file -config names, then the flags given
// explicitly. It declares -config and, through each of binds, the option
// flags on fs, beside the command's own flags declared there already. Each
// option flag that overrides the file is reported once on stderr, so a
// drifting wrapper script is visible. The result is validated.
func Parse(fs *flag.FlagSet, args []string, stderr io.Writer, binds ...func(*flag.FlagSet, *Options)) (Options, error) {
	own := map[string]bool{}
	fs.VisitAll(func(f *flag.Flag) { own[f.Name] = true })
	cfgPath := fs.String("config", "", "JSON options file (pkg/qpredict Options; explicitly set flags override it)")
	own["config"] = true
	opts := Default()
	for _, bind := range binds {
		bind(fs, &opts)
	}
	if err := fs.Parse(args); err != nil {
		return opts, err
	}
	if *cfgPath != "" {
		// The file replaces what the first parse wrote into opts; parsing the
		// same arguments again puts the flags that were given back on top.
		file, err := LoadFile(*cfgPath)
		if err != nil {
			return opts, err
		}
		opts = file
		if err := fs.Parse(args); err != nil {
			return opts, err
		}
		var overridden []string
		fs.Visit(func(f *flag.Flag) {
			if !own[f.Name] {
				overridden = append(overridden, "-"+f.Name)
			}
		})
		if len(overridden) > 0 {
			fmt.Fprintf(stderr, "note: %s override %s (flags beat config; move them into the file to silence this)\n",
				strings.Join(overridden, " "), *cfgPath)
		}
	}
	return opts, opts.Validate()
}

// Core returns the predictor options the train block selects.
func (t TrainOptions) Core() core.Options {
	opt := core.DefaultOptions()
	opt.TwoStep = t.TwoStep
	return opt
}

// Pool generates the training workload t describes: Count TPC-DS queries
// executed on t's machine.
func Pool(t TrainOptions, logw io.Writer) (*dataset.Dataset, error) {
	machine, err := exec.ParseMachine(t.Machine)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(logw, "generating %d training queries on %s...\n", t.Count, machine)
	pool, err := dataset.Generate(dataset.GenConfig{
		Seed:      t.Seed,
		DataSeed:  t.DataSeed,
		Machine:   machine,
		Schema:    catalog.TPCDS(1),
		Templates: workload.TPCDSTemplates(),
		Count:     t.Count,
	})
	if err != nil {
		return nil, fmt.Errorf("generating training workload: %w", err)
	}
	return pool, nil
}

// Model returns the model t names: the saved one t.Load names, or else one
// trained on Pool(t).
func Model(t TrainOptions, logw io.Writer) (*core.Predictor, error) {
	if t.Load != "" {
		f, err := os.Open(t.Load)
		if err != nil {
			return nil, fmt.Errorf("opening model: %w", err)
		}
		p, err := core.Load(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("loading model: %w", err)
		}
		fmt.Fprintf(logw, "loaded model trained on %d queries\n", p.N())
		return p, nil
	}
	pool, err := Pool(t, logw)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(logw, "training KCCA model...")
	p, err := core.Train(pool.Queries, t.Core())
	if err != nil {
		return nil, fmt.Errorf("training: %w", err)
	}
	return p, nil
}

// Start turns validated options into a running service: recover each
// shard's durable state or acquire the boot model (Model), build the router,
// wrap it in the HTTP adapter. Progress goes to logw; modelDesc says where
// the served model came from. On an error whatever was opened so far is left
// to the exiting process.
func Start(opts Options, logw io.Writer) (svc *serve.Server, modelDesc string, err error) {
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
	opt := opts.Train.Core()

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
	modelDesc = "model: recovered from state"
	if allWarm {
		fmt.Fprintf(logw, "recovered %d warm partition(s) from %s; skipping boot training\n", nShards, opts.State.Dir)
	} else {
		if predictor, err = Model(opts.Train, logw); err != nil {
			return nil, "", err
		}
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
