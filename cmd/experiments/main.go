// Command experiments reproduces every table and figure of the paper's
// evaluation and prints paper-style reports. Use -list to see experiment
// ids and -run to select a subset.
//
// Usage:
//
//	experiments [-seed N] [-run fig10,table1,...]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/internal/obs"
)

type experiment struct {
	id, desc string
	run      func(l *experiments.Lab) (interface{ Report() string }, error)
}

func wrap[T interface{ Report() string }](f func(l *experiments.Lab) (T, error)) func(l *experiments.Lab) (interface{ Report() string }, error) {
	return func(l *experiments.Lab) (interface{ Report() string }, error) {
		return f(l)
	}
}

var registry = []experiment{
	{"fig2", "query census (feathers / golf balls / bowling balls)", wrap((*experiments.Lab).QueryCensus)},
	{"fig3", "linear regression baseline: elapsed time", wrap((*experiments.Lab).RegressionElapsed)},
	{"fig4", "linear regression baseline: records used", wrap((*experiments.Lab).RegressionRecords)},
	{"sec5", "K-means / PCA / classical-CCA baselines", wrap((*experiments.Lab).Baselines)},
	{"fig8", "KCCA on SQL-text features", wrap((*experiments.Lab).SQLTextKCCA)},
	{"table1", "Euclidean vs cosine neighbor distance", wrap((*experiments.Lab).DistanceMetricComparison)},
	{"table2", "neighbor count k=3..7", wrap((*experiments.Lab).NeighborCountComparison)},
	{"table3", "neighbor weighting schemes", wrap((*experiments.Lab).NeighborWeighting)},
	{"fig10", "Experiment 1: one-model KCCA (also Figs. 11-12)", wrap((*experiments.Lab).Experiment1)},
	{"fig13", "Experiment 2: balanced 30/30/30 training", wrap((*experiments.Lab).Experiment2)},
	{"fig14", "Experiment 3: two-step prediction", wrap((*experiments.Lab).Experiment3)},
	{"fig15", "Experiment 4: customer-database test", wrap((*experiments.Lab).Experiment4)},
	{"fig16", "32-node system configuration sweep", wrap((*experiments.Lab).ConfigSweep)},
	{"sec7c2", "feature influence analysis", wrap((*experiments.Lab).FeatureInfluences)},
	{"sec7c4", "continuous retraining under workload drift", wrap((*experiments.Lab).WorkloadDrift)},
	{"contention", "concurrent-workload makespan what-if", wrap((*experiments.Lab).ContentionWhatIf)},
	{"fig17", "optimizer cost baseline", wrap((*experiments.Lab).OptimizerCostBaseline)},
}

func main() { cli.Main(run) }

// run's exits go through internal/cli, so the -timings table prints on
// error exits too.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 42, "root seed for workload generation and splits")
	runIDs := fs.String("run", "", "comma-separated experiment ids (default: all)")
	list := fs.Bool("list", false, "list experiment ids and exit")
	out := fs.String("out", "", "also write the reports as markdown to this file")
	timings := fs.Bool("timings", false, "print the per-stage timing table on exit")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics, /timings, /debug/pprof on this address (e.g. localhost:6060)")
	fs.Parse(args)

	if *metricsAddr != "" {
		addr, err := obs.ServeMetrics(*metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics server: %v", err)
		}
		fmt.Fprintf(stderr, "metrics at http://%s/metrics (timings, expvar, pprof alongside)\n", addr)
	}
	if *timings {
		cli.AtExit(func() { fmt.Fprint(stderr, "\n"+obs.TimingsTable()) })
	}

	if *list {
		for _, e := range registry {
			fmt.Fprintf(stdout, "%-8s %s\n", e.id, e.desc)
		}
		return nil
	}

	// The ids are checked in the order given, so the first unknown one is
	// the one named.
	selected := map[string]bool{}
	if *runIDs != "" {
		for _, id := range strings.Split(*runIDs, ",") {
			id = strings.TrimSpace(id)
			if !slices.ContainsFunc(registry, func(e experiment) bool { return e.id == id }) {
				fmt.Fprintf(stderr, "unknown experiment %q (use -list)\n", id)
				return cli.ExitCode(2)
			}
			selected[id] = true
		}
	}

	var md *strings.Builder
	if *out != "" {
		md = &strings.Builder{}
		fmt.Fprintf(md, "# Experiment reports (seed %d)\n", *seed)
	}
	lab := experiments.NewLab(*seed)
	for _, e := range registry {
		if len(selected) > 0 && !selected[e.id] {
			continue
		}
		start := time.Now()
		res, err := e.run(lab)
		if err != nil {
			return fmt.Errorf("%s failed: %v", e.id, err)
		}
		report := res.Report()
		fmt.Fprintf(stdout, "=== %s (%.1fs) ===\n%s\n", e.id, time.Since(start).Seconds(), report)
		if md != nil {
			fmt.Fprintf(md, "\n## %s — %s\n\n```\n%s```\n", e.id, e.desc, report)
		}
	}
	if md != nil {
		if err := os.WriteFile(*out, []byte(md.String()), 0o644); err != nil {
			return fmt.Errorf("writing %s: %v", *out, err)
		}
		fmt.Fprintf(stderr, "markdown report written to %s\n", *out)
	}
	return nil
}
