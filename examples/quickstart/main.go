// Quickstart: generate a training workload on the simulated 4-processor
// system, train the KCCA predictor, and predict the six performance
// metrics of held-out queries before "executing" them — the paper's core
// loop in ~60 lines.
package main

import (
	"fmt"
	"log"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/workload"
)

func main() {
	// 1. Build a labeled training workload: template-generated queries,
	//    planned by the cost-based optimizer and executed on the simulated
	//    research system (the HP Neoview stand-in).
	pool, err := dataset.Generate(dataset.GenConfig{
		Seed:      7,
		DataSeed:  1000,
		Machine:   exec.Research4(),
		Schema:    catalog.TPCDS(1),
		Templates: workload.TPCDSTemplates(),
		Count:     520,
	})
	if err != nil {
		log.Fatal(err)
	}
	train := pool.Queries[:480]
	test := pool.Queries[480:]

	// 2. Train the predictor: KCCA correlates plan feature vectors with
	//    performance vectors; prediction averages the metrics of the three
	//    nearest neighbors in the learned projection.
	predictor, err := core.Train(train, core.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained on %d queries\n\n", predictor.N())

	// 3. Predict the held-out queries using only pre-execution information
	//    (their optimizer plans) and compare with the measured truth.
	fmt.Printf("%-26s %-13s %12s %12s %10s\n", "template", "type", "pred (s)", "actual (s)", "conf")
	for _, q := range test {
		pred, err := predictor.PredictQuery(q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-26s %-13s %12.2f %12.2f %10.2f\n",
			q.Template, pred.Category, pred.Metrics.ElapsedSec, q.Metrics.ElapsedSec, pred.Confidence)
	}

	// 4. All six metrics come out of the same prediction.
	q := test[0]
	pred, err := predictor.PredictQuery(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfull metric vector for one %s query:\n", q.Template)
	fmt.Printf("  predicted: %v\n", pred.Metrics)
	fmt.Printf("  actual:    %v\n", q.Metrics)
}
