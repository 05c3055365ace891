package knn

import (
	"fmt"
	"testing"

	"repro/internal/kcca"
	"repro/internal/linalg"
	"repro/internal/statutil"
	"repro/internal/testutil"
)

// Benchmarks on a templated 15-dimensional cloud: N points, k = 3 Euclidean.
// BenchmarkPredictScan is the flat O(N·rank) baseline,
// BenchmarkPredictIndexed the per-generation KD-tree; CI runs both at
// N ∈ {4000, 20000, 100000} and BENCH_knn.json records the curves. This is
// the regime an exact KD-tree prunes well in — not the cloud a stock daemon
// serves, which is 80-dimensional (kcca.Options.Dims 0 keeps every
// kernel-PCA component): BenchmarkNearestStock measures that one.

const benchDims = 15

// benchCloud models the paper's workload structure: queries are template
// instantiations, so each projected point is its template's mode plus a few
// latent parameter directions (the varied literals) plus small residual
// noise. The ambient space is 15-dimensional but the intrinsic
// dimensionality per cluster is ~3 — the regime where an exact KD-tree
// prunes effectively. (Uniform i.i.d. 15-dim noise is the known KD-tree
// worst case and does not resemble a templated workload.)
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

func benchSizes() []int { return []int{4000, 20000, 100000} }

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

func BenchmarkPredictScan(b *testing.B) {
	for _, n := range benchSizes() {
		points, queries := benchSplit(31, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Nearest(points, queries.Row(i%queries.Rows), 3, Euclidean); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkPredictIndexed(b *testing.B) {
	for _, n := range benchSizes() {
		points, queries := benchSplit(31, n)
		ix := NewIndex(points, Euclidean)
		if ix.Flat() {
			b.Fatal("benchmark index unexpectedly flat")
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ix.Nearest(queries.Row(i%queries.Rows), 3); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIndexBuild prices the once-per-generation construction cost the
// retrain-install path pays for sub-linear serving — packing the leaf blocks
// included. The stock case is the daemon's: the 800 × 80 query projection.
func BenchmarkIndexBuild(b *testing.B) {
	build := func(b *testing.B, points *linalg.Matrix) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ix := NewIndex(points, Euclidean)
			if ix.Flat() {
				b.Fatal("flat")
			}
		}
	}
	for _, n := range benchSizes() {
		points := benchCloud(31, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { build(b, points) })
	}
	var stock *kcca.Model // trained only if the case runs, and then once
	b.Run("stock", func(b *testing.B) {
		if stock == nil {
			stock, _ = stockProjection(b, 0)
		}
		build(b, stock.QueryProj)
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

// BenchmarkNearestStock is Index.Nearest at the daemon's shape: the 800 × 80
// query projection of a KCCA model trained on a dataset.Generate workload,
// searched with the projections of held-out queries from the same workload.
// scored/op and abandoned/op say how well the index prunes there: how many
// of the 800 points a search offers to the scorer, and how many of those the
// scorer drops part-way through their distance sums. rescored_blocks/op is
// how many 16-point leaf blocks a search sums in full because the first
// stride of sums did not settle every group in them (0 on a host without the
// vector kernels, where the index keeps no blocks).
func BenchmarkNearestStock(b *testing.B) {
	const held = 256
	m, queries := stockProjection(b, held)
	ix := NewIndex(m.QueryProj, Euclidean)
	if ix.Flat() {
		b.Fatal("benchmark index unexpectedly flat")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.Nearest(queries[i%held], 3); err != nil {
			b.Fatal(err)
		}
	}
	st := ix.Stats()
	b.ReportMetric(float64(st.PointsScored)/float64(st.Searches), "scored/op")
	b.ReportMetric(float64(st.PointsAbandoned)/float64(st.Searches), "abandoned/op")
	b.ReportMetric(float64(ix.rescored.Load())/float64(st.Searches), "rescored_blocks/op")
}

// stockProjection trains the daemon's KCCA model on a dataset.Generate
// workload and projects held further queries of the same workload.
func stockProjection(tb testing.TB, held int) (*kcca.Model, [][]float64) {
	x, y := testutil.StockFeatures(testutil.StockQueries(tb, testutil.StockTrain+held))
	m, err := kcca.Train(x.SliceRows(0, testutil.StockTrain), y.SliceRows(0, testutil.StockTrain), kcca.DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	queries := make([][]float64, held)
	for i := range queries {
		queries[i] = m.ProjectQuery(x.Row(testutil.StockTrain + i))
	}
	return m, queries
}
