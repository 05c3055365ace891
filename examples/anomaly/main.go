// Anomaly detection from prediction confidence: the paper's Sec. VII-C.3
// observation that the Euclidean distance from a query to its nearest
// neighbors measures how much the prediction can be trusted — and
// therefore flags anomalous queries the model has never seen anything
// like.
//
// This example trains on the TPC-DS workload and then scores three groups
// of queries:
//
//  1. held-out TPC-DS queries (in-distribution — high confidence),
//  2. queries against the CUSTOMER schema the model never saw
//     (out-of-distribution — low confidence), and
//  3. the in-distribution group again, with predictions gated by a
//     confidence threshold chosen from the training data.
//
// The paper's anomalous bowling balls "were not as close to their
// neighbors as the better-predicted ones" — here the confidence score
// makes that observation operational.
package main

import (
	"fmt"
	"log"
	"sort"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/workload"
)

func main() {
	// Train on TPC-DS.
	pool, err := dataset.Generate(dataset.GenConfig{
		Seed:      21,
		DataSeed:  1000,
		Machine:   exec.Research4(),
		Schema:    catalog.TPCDS(1),
		Templates: workload.TPCDSTemplates(),
		Count:     640,
	})
	if err != nil {
		log.Fatal(err)
	}
	train := pool.Queries[:600]
	inDist := pool.Queries[600:]

	predictor, err := core.Train(train, core.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}

	// Out-of-distribution queries: a different schema entirely.
	foreign, err := dataset.Generate(dataset.GenConfig{
		Seed:      22,
		DataSeed:  1001,
		Machine:   exec.Research4(),
		Schema:    catalog.CustomerSchema(),
		Templates: workload.CustomerTemplates(),
		Count:     40,
	})
	if err != nil {
		log.Fatal(err)
	}

	score := func(qs []*dataset.Query) []float64 {
		out := make([]float64, 0, len(qs))
		for _, q := range qs {
			p, err := predictor.PredictQuery(q)
			if err != nil {
				log.Fatal(err)
			}
			out = append(out, p.Confidence)
		}
		sort.Float64s(out)
		return out
	}
	quantile := func(sorted []float64, q float64) float64 {
		if len(sorted) == 0 {
			return 0
		}
		i := int(q * float64(len(sorted)-1))
		return sorted[i]
	}

	confIn := score(inDist)
	confOut := score(foreign.Queries)

	fmt.Println("prediction confidence by group (median [p10, p90]):")
	fmt.Printf("  in-distribution TPC-DS queries:   %.2f  [%.2f, %.2f]\n",
		quantile(confIn, 0.5), quantile(confIn, 0.1), quantile(confIn, 0.9))
	fmt.Printf("  customer-schema queries (foreign): %.2f  [%.2f, %.2f]\n",
		quantile(confOut, 0.5), quantile(confOut, 0.1), quantile(confOut, 0.9))

	// Gate predictions on a confidence threshold: flag the rest for
	// conservative handling (run in the batch queue, or refuse to promise
	// a runtime).
	threshold := quantile(confIn, 0.1) // accept ~90% of in-distribution traffic
	flagged := 0
	for _, c := range confOut {
		if c < threshold {
			flagged++
		}
	}
	accepted := 0
	for _, c := range confIn {
		if c >= threshold {
			accepted++
		}
	}
	fmt.Printf("\nwith the threshold set at %.2f (the in-distribution p10):\n", threshold)
	fmt.Printf("  %d/%d in-distribution queries keep their predictions\n", accepted, len(confIn))
	fmt.Printf("  %d/%d foreign queries are flagged as anomalous\n", flagged, len(confOut))
}
