// Command whatif answers the paper's capacity-planning question from the
// command line: given a workload (a CSV produced by dsgen, or a generated
// one) and a batch window, which is the smallest configuration of the
// 32-node production system that completes the workload in time?
//
// For each candidate configuration it trains a predictor from that
// configuration's simulated history, re-plans the workload's SQL for that
// configuration, predicts every query, and applies the constraint — no
// workload query is ever executed on a candidate.
//
// Usage:
//
//	dsgen -count 60 -machine prod32:32 -out workload.csv
//	whatif -workload workload.csv -window 120
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/catalog"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/serve"
	"repro/internal/sizing"
	"repro/internal/workload"
)

func main() { cli.Main(run) }

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	fs.SetOutput(stderr)
	workloadPath := fs.String("workload", "", "workload CSV from dsgen (omit to generate one)")
	window := fs.Float64("window", 120, "batch window in seconds")
	maxQuery := fs.Float64("maxquery", 0, "per-query SLA in seconds (0 = none)")
	seed := fs.Int64("seed", 5, "history/workload generation seed")
	dataSeed := fs.Int64("dataseed", 1000, "data realization seed")
	histCount := fs.Int("history", 700, "training history size per configuration")
	genCount := fs.Int("gen", 60, "generated workload size when -workload is omitted")
	fs.Parse(args)

	schema := catalog.TPCDS(1)
	// Each candidate's history is drawn from the template classes the
	// workload holds: a generated workload is reporting ("tpcds") queries
	// only, a dsgen file names its classes in its class column.
	classes := map[string]bool{"tpcds": true}
	var sqls []string
	if *workloadPath != "" {
		f, err := os.Open(*workloadPath)
		if err != nil {
			return fmt.Errorf("opening workload: %v", err)
		}
		rows, err := dataset.ReadCSV(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("reading workload: %v", err)
		}
		classes = map[string]bool{}
		for _, row := range rows {
			sqls = append(sqls, row.SQL)
			classes[row.Class] = true
		}
	}
	var history []workload.Template
	for _, t := range workload.TPCDSTemplates() {
		if classes[t.Class] {
			history = append(history, t)
		}
	}
	if len(history) == 0 {
		return fmt.Errorf("workload: no TPC-DS template belongs to any of its classes")
	}
	if *workloadPath == "" {
		ds, err := dataset.Generate(dataset.GenConfig{
			Seed: *seed + 77, DataSeed: *dataSeed, Machine: exec.Production32(32),
			Schema: schema, Templates: history, Count: *genCount,
		})
		if err != nil {
			return fmt.Errorf("generating workload: %v", err)
		}
		for _, q := range ds.Queries {
			sqls = append(sqls, q.SQL)
		}
	}
	fmt.Fprintf(stderr, "workload: %d queries; window %.0fs\n", len(sqls), *window)

	// Build candidates: train one predictor per configuration.
	var candidates []sizing.Candidate
	workloads := map[string][]*dataset.Query{}
	for _, procs := range []int{4, 8, 16, 32} {
		m := exec.Production32(procs)
		fmt.Fprintf(stderr, "training candidate %s from %d historical queries...\n", m.Name, *histCount)
		hist, err := dataset.Generate(dataset.GenConfig{
			Seed: *seed, DataSeed: *dataSeed, Machine: m,
			Schema: schema, Templates: history, Count: *histCount,
		})
		if err != nil {
			return fmt.Errorf("history for %s: %v", m.Name, err)
		}
		p, err := core.Train(hist.Queries, core.DefaultOptions())
		if err != nil {
			return fmt.Errorf("training %s: %v", m.Name, err)
		}
		candidates = append(candidates, sizing.Candidate{Machine: m, Predictor: p})

		// Re-plan the workload's SQL for this configuration, through the
		// daemon's SQL → plan pipeline.
		plan := serve.PlannerFunc(schema, *dataSeed, m)
		var qs []*dataset.Query
		for i, sqlText := range sqls {
			q, err := plan(sqlText)
			if err != nil {
				return fmt.Errorf("planning workload query %d: %v", i, err)
			}
			q.ID = i
			qs = append(qs, q)
		}
		workloads[m.Name] = qs
	}

	constraint := sizing.Constraint{MaxTotalElapsedSec: *window, MaxQueryElapsedSec: *maxQuery}
	fmt.Fprintf(stdout, "%-14s %14s %14s %12s %8s\n", "config", "pred total (s)", "max query (s)", "min conf", "fits?")
	recommended := ""
	for _, cand := range candidates {
		assessments, rec, err := sizing.Plan(workloads[cand.Machine.Name], []sizing.Candidate{cand}, constraint)
		if err != nil {
			return fmt.Errorf("sizing %s: %v", cand.Machine.Name, err)
		}
		a := assessments[0]
		fits := "no"
		if rec == 0 {
			fits = "yes"
			if recommended == "" {
				recommended = cand.Machine.Name
			}
		}
		fmt.Fprintf(stdout, "%-14s %14.0f %14.1f %12.2f %8s\n",
			cand.Machine.Name, a.Totals.ElapsedSec, a.MaxQueryElapsedSec, a.MinConfidence, fits)
	}
	if recommended == "" {
		fmt.Fprintln(stdout, "\nno candidate fits — recommend a larger system or a longer window")
		return cli.ExitCode(2)
	}
	fmt.Fprintf(stdout, "\nrecommendation: %s\n", recommended)
	return nil
}
