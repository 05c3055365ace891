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
	"repro/internal/optimizer"
	"repro/internal/sizing"
	"repro/internal/sqlparse"
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
	var reporting []workload.Template
	for _, t := range workload.TPCDSTemplates() {
		if t.Class == "tpcds" {
			reporting = append(reporting, t)
		}
	}

	// Load or generate the workload SQL.
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
		for _, row := range rows {
			sqls = append(sqls, row.SQL)
		}
	} else {
		ds, err := dataset.Generate(dataset.GenConfig{
			Seed: *seed + 77, DataSeed: *dataSeed, Machine: exec.Production32(32),
			Schema: schema, Templates: reporting, Count: *genCount,
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
			Schema: schema, Templates: reporting, Count: *histCount,
		})
		if err != nil {
			return fmt.Errorf("history for %s: %v", m.Name, err)
		}
		p, err := core.Train(hist.Queries, core.DefaultOptions())
		if err != nil {
			return fmt.Errorf("training %s: %v", m.Name, err)
		}
		candidates = append(candidates, sizing.Candidate{Machine: m, Predictor: p})

		// Re-plan the workload's SQL for this configuration.
		cfg := optimizer.DefaultConfig(procs)
		var qs []*dataset.Query
		for i, sqlText := range sqls {
			ast, err := sqlparse.Parse(sqlText)
			if err != nil {
				return fmt.Errorf("parsing workload query %d: %v", i, err)
			}
			plan, err := optimizer.BuildPlan(ast, schema, *dataSeed, cfg)
			if err != nil {
				return fmt.Errorf("planning workload query %d: %v", i, err)
			}
			qs = append(qs, &dataset.Query{ID: i, SQL: sqlText, AST: ast, Plan: plan})
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
