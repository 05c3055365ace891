// Workload management: the paper's first motivating use case. A workload
// manager must decide, before each query starts, whether to admit it to
// the interactive queue, divert it to the batch queue, or reject it — and
// how long to wait before concluding something went wrong and killing it.
//
// This example compares three admission policies (internal/driver) on the
// same arriving query stream:
//
//   - blind:      admit everything interactively; kill at a fixed timeout,
//     wasting all the work the killed query did;
//   - predictive: route on the KCCA prediction, reject predicted wrecking
//     balls, gate on prediction confidence, and derive each
//     query's kill timeout from its own prediction;
//   - oracle:     the same decisions with perfect knowledge (upper bound).
//
// The predictive policy eliminates almost all kill-waste and collapses
// interactive latency, using only pre-execution information.
package main

import (
	"fmt"
	"log"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/driver"
	"repro/internal/exec"
	"repro/internal/statutil"
	"repro/internal/workload"
)

const interactiveLimit = 180.0 // seconds
const rejectBeyond = 7200.0    // predicted wrecking balls are refused

func main() {
	pool, err := dataset.Generate(dataset.GenConfig{
		Seed:      11,
		DataSeed:  1000,
		Machine:   exec.Research4(),
		Schema:    catalog.TPCDS(1),
		Templates: workload.TPCDSTemplates(),
		Count:     1000,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Split the pool into training history and an arriving stream.
	r := statutil.NewRNG(3, "arrivals")
	idx := r.SampleInts(len(pool.Queries), 160)
	inStream := map[int]bool{}
	var stream, train []*dataset.Query
	for _, i := range idx {
		inStream[i] = true
	}
	for i, q := range pool.Queries {
		if inStream[i] {
			stream = append(stream, q)
		} else {
			train = append(train, q)
		}
	}

	predictor, err := core.Train(train, core.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}

	outcomes, err := driver.Compare(stream,
		driver.BlindPolicy{KillAfterSec: interactiveLimit},
		driver.PredictivePolicy{
			Predictor:           predictor,
			InteractiveLimitSec: interactiveLimit,
			Headroom:            3,
			MinTimeoutSec:       10,
			RejectBeyondSec:     rejectBeyond,
			MinConfidence:       0.05,
		},
		driver.OraclePolicy{InteractiveLimitSec: interactiveLimit, RejectBeyondSec: rejectBeyond},
	)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("arriving queries: %d  (interactive limit %.0fs, reject beyond %.0fs)\n\n",
		len(stream), interactiveLimit, rejectBeyond)
	fmt.Printf("%-12s %12s %7s %8s %7s %12s %18s\n",
		"policy", "interactive", "batch", "reject", "kills", "wasted (s)", "mean int. latency")
	for _, o := range outcomes {
		fmt.Printf("%-12s %12d %7d %8d %7d %12.0f %17.0fs\n",
			o.Policy, o.Interactive, o.Batch, o.Rejected, o.Killed,
			o.WastedSec, o.MeanInteractiveLatencySec)
	}

	blind, pred := outcomes[0], outcomes[1]
	fmt.Printf("\npredictive admission avoids %.0f seconds of killed work and cuts mean interactive\n"+
		"latency from %.0fs to %.0fs — using only pre-execution predictions.\n",
		blind.WastedSec-pred.WastedSec,
		blind.MeanInteractiveLatencySec, pred.MeanInteractiveLatencySec)
}
