package knn

import (
	"fmt"
	"testing"

	"repro/internal/kcca"
	"repro/internal/linalg"
	"repro/internal/statutil"
	"repro/internal/testutil"
)

// benchDims is the dimensionality of benchCloud, the cloud
// BenchmarkNearestCosine searches.
const benchDims = 15

// benchCloud models the paper's workload structure: queries are template
// instantiations, so each projected point is its template's mode plus a few
// latent parameter directions (the varied literals) plus small residual
// noise. The ambient space is 15-dimensional but the intrinsic
// dimensionality per cluster is ~3.
func benchCloud(seed int64, n int) *linalg.Matrix {
	rng := statutil.NewRNG(seed, "knn-bench")
	const templates, factors = 12, 3
	centers := linalg.NewMatrix(templates, benchDims)
	for i := range centers.Data {
		centers.Data[i] = 5 * rng.NormFloat64()
	}
	dirs := linalg.NewMatrix(templates*factors, benchDims)
	for i := range dirs.Data {
		dirs.Data[i] = rng.NormFloat64()
	}
	m := linalg.NewMatrix(n, benchDims)
	for i := 0; i < n; i++ {
		t := rng.Intn(templates)
		row := m.Row(i)
		copy(row, centers.Row(t))
		for f := 0; f < factors; f++ {
			alpha := 0.5 * rng.NormFloat64()
			d := dirs.Row(t*factors + f)
			for j := 0; j < benchDims; j++ {
				row[j] += alpha * d[j]
			}
		}
		for j := 0; j < benchDims; j++ {
			row[j] += 0.02 * rng.NormFloat64()
		}
	}
	return m
}

// benchSplit draws points and queries from one cloud (same templates —
// queries are instantiations of the same workload the model trained on,
// as in serving).
func benchSplit(seed int64, n int) (points, queries *linalg.Matrix) {
	const nq = 256
	all := benchCloud(seed, n+nq)
	points = linalg.NewMatrixFrom(n, benchDims, all.Data[:n*benchDims])
	queries = linalg.NewMatrixFrom(nq, benchDims, all.Data[n*benchDims:])
	return points, queries
}

// BenchmarkIndexBuild prices the once-per-generation construction cost the
// retrain-install path pays — the sort and the blocked store. The stock case
// is the daemon's: the 800 × 80 query projection.
func BenchmarkIndexBuild(b *testing.B) {
	var stock *kcca.Model // trained only if the case runs, and then once
	b.Run("stock", func(b *testing.B) {
		if stock == nil {
			stock, _ = stockProjection(b, testutil.StockTrain, 0)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			NewIndex(stock.QueryProj, Euclidean)
		}
	})
}

// BenchmarkNearestCosine is the regression guard for the hoisted query
// norm: the cosine flat scan must compute Norm(q) once per query, not once
// per candidate. A reintroduced per-candidate norm roughly doubles this
// benchmark's ns/op (two O(d) passes per candidate instead of one), which
// the bench-smoke CI job surfaces.
func BenchmarkNearestCosine(b *testing.B) {
	points, queries := benchSplit(33, 4000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Nearest(points, queries.Row(i%queries.Rows), 3, Cosine); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNearestStock is Index.Nearest at the shapes a daemon serves: the
// query projection of a KCCA model trained on n rows of a dataset.Generate
// workload, searched with the projections of held-out queries from the same
// workload. n=800 is the stock window (80 dimensions); n=500 is a smaller
// window with a model of its own (also 80). abandoned/op says how many of
// the n points a search drops part-way through their distance sums;
// rescored_blocks/op is how many 16-point blocks it sums in full because the
// first stride of sums did not settle every group in them (0 on a host
// without the vector kernels, where the index keeps no blocks).
func BenchmarkNearestStock(b *testing.B) {
	const held = 256
	for _, n := range []int{500, testutil.StockTrain} {
		var m *kcca.Model // trained only if the case runs, and then once
		var queries [][]float64
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			if m == nil {
				m, queries = stockProjection(b, n, held)
			}
			ix := NewIndex(m.QueryProj, Euclidean)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ix.Nearest(queries[i%held], 3); err != nil {
					b.Fatal(err)
				}
			}
			st := ix.Stats()
			b.ReportMetric(float64(st.PointsAbandoned)/float64(st.Searches), "abandoned/op")
			b.ReportMetric(float64(ix.rescored.Load())/float64(st.Searches), "rescored_blocks/op")
		})
	}
}

// stockProjection trains a KCCA model with the daemon's options on the first
// train queries of a dataset.Generate workload and projects held further
// queries of the same workload.
func stockProjection(tb testing.TB, train, held int) (*kcca.Model, [][]float64) {
	x, y := testutil.StockFeatures(testutil.StockQueries(tb, train+held))
	m, err := kcca.Train(x.SliceRows(0, train), y.SliceRows(0, train), kcca.DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	queries := make([][]float64, held)
	for i := range queries {
		queries[i] = m.ProjectQuery(x.Row(train + i))
	}
	return m, queries
}
