package testutil

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/features"
	"repro/internal/linalg"
	"repro/internal/workload"
)

// StockTrain is the training-set size of a stock qpredictd (-train 800): the
// shape at which the automatic kernel-PCA rank, and with it the projection
// dimensionality, reaches its cap of 80.
const StockTrain = 800

// StockQueries generates count TPC-DS-simulated executed queries the way the
// daemon generates its boot workload (dataset.Generate on the default
// schema, machine and templates). Benchmarks that claim the daemon's shape
// train on the first StockTrain of them and predict the rest.
func StockQueries(tb testing.TB, count int) []*dataset.Query {
	tb.Helper()
	ds, err := dataset.Generate(dataset.GenConfig{
		Seed: 11, DataSeed: 3, Machine: exec.Research4(),
		Schema: catalog.TPCDS(1), Templates: workload.TPCDSTemplates(), Count: count,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return ds.Queries
}

// StockFeatures returns, one row per query, the plan feature vectors
// core.Train extracts from executed queries under its default options, and
// the performance kernel vectors the two-view fits (kcca's reference in
// tests, the CCA baseline) pair with them.
func StockFeatures(qs []*dataset.Query) (x, y *linalg.Matrix) {
	xRows, yRows := make([][]float64, len(qs)), make([][]float64, len(qs))
	for i, q := range qs {
		xRows[i] = features.PlanVector(q.Plan)
		yRows[i] = features.PerfKernelVector(q.Metrics)
	}
	return features.Matrices(xRows), features.Matrices(yRows)
}
