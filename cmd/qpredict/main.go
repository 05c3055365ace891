// Command qpredict trains a KCCA performance predictor on a generated
// training workload and predicts the six performance metrics of a query
// given only its SQL text — the vendor-trains / customer-predicts workflow
// of the paper's Fig. 1.
//
// Usage:
//
//	qpredict -sql "SELECT COUNT(*) FROM store_sales WHERE ss_quantity BETWEEN 1 AND 10"
//	qpredict -machine prod32:8 -train 800 -twostep -sql "..."
//	qpredict -json -sql "..."   # the daemon's wire schema, for scripts
//
// Without -sql, qpredict evaluates the model on a held-out test split and
// prints accuracy, which is useful for sanity-checking a configuration.
//
// All exits route through internal/cli, so cleanup hooks (like the
// -timings table) run on error paths too — the same exit path qpredictd's
// shutdown hook uses.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/api"
	"repro/internal/catalog"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/sqlparse"
	"repro/internal/statutil"
	"repro/internal/wal"
	"repro/internal/workload"
	"repro/pkg/qpredict"
)

func main() { cli.Main(run) }

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	fs.SetOutput(stderr)
	cfgPath := fs.String("config", "", "JSON options file (pkg/qpredict Options; explicitly set flags override it)")
	sqlText := fs.String("sql", "", "SQL statement to predict (omit to run a self-evaluation)")
	trainCount := fs.Int("train", 1000, "training workload size")
	seed := fs.Int64("seed", 1, "workload seed")
	dataSeed := fs.Int64("dataseed", 1000, "data realization seed")
	machineName := fs.String("machine", "research4", "machine: research4 or prod32:<cpus>")
	twoStep := fs.Bool("twostep", false, "use two-step (query-type-specific) prediction")
	verbose := fs.Bool("v", false, "print the query plan")
	jsonOut := fs.Bool("json", false, "emit the prediction as JSON in the qpredictd wire schema (docs/API.md)")
	saveTo := fs.String("save", "", "after training, save the model to this file")
	loadFrom := fs.String("load", "", "load a previously saved model instead of training")
	timings := fs.Bool("timings", false, "print the per-stage timing table on exit")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics, /timings, /debug/pprof on this address (e.g. localhost:6060)")
	fs.Parse(args)

	// -config loads the shared qpredict.Options file; the CLI consumes its
	// train block (the serve/shard/state blocks belong to qpredictd).
	// Explicitly set flags override the file, reported once.
	if *cfgPath != "" {
		opts, err := qpredict.LoadFile(*cfgPath)
		if err != nil {
			return err
		}
		set := map[string]bool{}
		var overridden []string
		fs.Visit(func(f *flag.Flag) {
			set[f.Name] = true
			switch f.Name {
			case "train", "seed", "dataseed", "machine", "twostep", "load":
				overridden = append(overridden, "-"+f.Name)
			}
		})
		if !set["train"] {
			*trainCount = opts.Train.Count
		}
		if !set["seed"] {
			*seed = opts.Train.Seed
		}
		if !set["dataseed"] {
			*dataSeed = opts.Train.DataSeed
		}
		if !set["machine"] {
			*machineName = opts.Train.Machine
		}
		if !set["twostep"] {
			*twoStep = opts.Train.TwoStep
		}
		if !set["load"] && opts.Train.Load != "" {
			*loadFrom = opts.Train.Load
		}
		if len(overridden) > 0 {
			fmt.Fprintf(stderr, "note: %s override %s (flags beat config; move them into the file to silence this)\n",
				strings.Join(overridden, " "), *cfgPath)
		}
	}

	if *metricsAddr != "" {
		addr, err := obs.ServeMetrics(*metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics server: %v", err)
		}
		fmt.Fprintf(stderr, "metrics at http://%s/metrics (timings, expvar, pprof alongside)\n", addr)
	}
	if *timings {
		// Registered as an exit hook (not a defer), so error exits print
		// the table too.
		cli.AtExit(func() { fmt.Fprint(stderr, "\n"+obs.TimingsTable()) })
	}

	machine, err := exec.ParseMachine(*machineName)
	if err != nil {
		return err
	}
	schema := catalog.TPCDS(1)
	opt := core.DefaultOptions()
	opt.TwoStep = *twoStep

	var predictor *core.Predictor
	if *loadFrom != "" {
		f, err := os.Open(*loadFrom)
		if err != nil {
			return fmt.Errorf("opening model: %v", err)
		}
		predictor, err = core.Load(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("loading model: %v", err)
		}
		fmt.Fprintf(stderr, "loaded model trained on %d queries\n", predictor.N())
	} else {
		fmt.Fprintf(stderr, "generating %d training queries on %s...\n", *trainCount, machine)
		pool, err := dataset.Generate(dataset.GenConfig{
			Seed:      *seed,
			DataSeed:  *dataSeed,
			Machine:   machine,
			Schema:    schema,
			Templates: workload.TPCDSTemplates(),
			Count:     *trainCount,
		})
		if err != nil {
			return fmt.Errorf("generating training workload: %v", err)
		}
		fmt.Fprintln(stderr, "training KCCA model...")
		if *sqlText == "" && *saveTo == "" {
			return selfEvaluate(stdout, pool, opt)
		}
		predictor, err = core.Train(pool.Queries, opt)
		if err != nil {
			return fmt.Errorf("training: %v", err)
		}
	}

	if *saveTo != "" {
		// Atomic save: a crash mid-write must never leave a truncated model
		// where a valid one (or nothing) used to be.
		var buf bytes.Buffer
		if err := predictor.Save(&buf); err != nil {
			return fmt.Errorf("saving model: %v", err)
		}
		if err := wal.WriteFileAtomic(*saveTo, buf.Bytes(), 0o644); err != nil {
			return fmt.Errorf("writing %s: %v", *saveTo, err)
		}
		fmt.Fprintf(stderr, "model saved to %s\n", *saveTo)
		if *sqlText == "" {
			return nil
		}
	}
	if *sqlText == "" {
		return fmt.Errorf("-load requires -sql (nothing to self-evaluate a loaded model against)")
	}

	ast, err := sqlparse.Parse(*sqlText)
	if err != nil {
		return fmt.Errorf("parsing SQL: %v", err)
	}
	plan, err := optimizer.BuildPlan(ast, schema, *dataSeed, optimizer.DefaultConfig(machine.Processors))
	if err != nil {
		return fmt.Errorf("planning: %v", err)
	}
	if *verbose {
		fmt.Fprint(stderr, optimizer.Explain(plan))
	}

	pred, err := predictor.PredictQuery(&dataset.Query{SQL: *sqlText, AST: ast, Plan: plan})
	if err != nil {
		return fmt.Errorf("predicting: %v", err)
	}

	if *jsonOut {
		return emitJSON(stdout, predictor, *sqlText, plan.Cost, pred)
	}
	fmt.Fprintf(stdout, "predicted query type:  %s\n", pred.Category)
	fmt.Fprintf(stdout, "confidence:            %.2f\n", pred.Confidence)
	fmt.Fprintf(stdout, "elapsed time:          %.2f s\n", pred.Metrics.ElapsedSec)
	fmt.Fprintf(stdout, "records accessed:      %.0f\n", pred.Metrics.RecordsAccessed)
	fmt.Fprintf(stdout, "records used:          %.0f\n", pred.Metrics.RecordsUsed)
	fmt.Fprintf(stdout, "disk I/Os:             %.0f\n", pred.Metrics.DiskIOs)
	fmt.Fprintf(stdout, "message count:         %.0f\n", pred.Metrics.MessageCount)
	fmt.Fprintf(stdout, "message bytes:         %.0f\n", pred.Metrics.MessageBytes)
	return nil
}

// emitJSON prints the prediction in the exact wire schema qpredictd
// serves, so scripted consumers parse one format regardless of binary.
func emitJSON(w io.Writer, p *core.Predictor, sql string, cost float64, pred *core.Prediction) error {
	opt := p.Options()
	m := api.MetricsFrom(pred.Metrics)
	resp := api.PredictResponse{
		Version: api.Version,
		Model: &api.ModelInfo{
			Generation: 1,
			TrainedOn:  p.N(),
			ModelKind:  core.ModelKind,
			Features:   opt.Features.String(),
			TwoStep:    opt.TwoStep,
		},
		Results: []api.QueryResult{{
			SQL:           sql,
			Metrics:       &m,
			Category:      pred.Category.String(),
			Confidence:    pred.Confidence,
			OptimizerCost: cost,
			Generation:    1,
			ModelKind:     core.ModelKind,
		}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(resp); err != nil {
		return fmt.Errorf("encoding JSON: %v", err)
	}
	return nil
}

// selfEvaluate holds out a fifth of the pool and reports accuracy.
func selfEvaluate(w io.Writer, pool *dataset.Dataset, opt core.Options) error {
	r := statutil.NewRNG(99, "qpredict-split")
	n := len(pool.Queries)
	testIdx := r.SampleInts(n, n/5)
	inTest := map[int]bool{}
	for _, i := range testIdx {
		inTest[i] = true
	}
	var train, test []*dataset.Query
	for i, q := range pool.Queries {
		if inTest[i] {
			test = append(test, q)
		} else {
			train = append(train, q)
		}
	}
	predictor, err := core.Train(train, opt)
	if err != nil {
		return fmt.Errorf("training: %v", err)
	}
	preds, err := predictor.PredictBatch(test)
	if err != nil {
		return fmt.Errorf("predicting: %v", err)
	}
	var pred, act []float64
	for i, q := range test {
		pred = append(pred, preds[i].Metrics.ElapsedSec)
		act = append(act, q.Metrics.ElapsedSec)
	}
	fmt.Fprintf(w, "self-evaluation on %d held-out queries:\n", len(test))
	fmt.Fprintf(w, "  elapsed-time predictive risk: %s\n", eval.FormatRisk(eval.PredictiveRisk(pred, act)))
	fmt.Fprintf(w, "  within 20%% of actual:         %.0f%%\n", eval.WithinFactor(pred, act, 0.2)*100)
	fmt.Fprint(w, eval.ScatterLogLog(pred, act, 60, 18, "  predicted vs actual elapsed time"))
	return nil
}
