package knn

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/linalg"
	"repro/internal/statutil"
)

// TestIndexScanEdges holds the outward scan to the flat scan, bit for bit,
// where its order could go wrong: windows of one point, one short block,
// exactly one block, one past it and many; leading coordinates that tie
// across a block boundary, or are NaN or ±Inf; queries whose first
// coordinate is below every key, above every key, equal to a key, NaN or
// ±Inf; k of 1, 3, n and n+1; both metrics; points of less and more than one
// stride. Two builds over the same points sort them the same way.
func TestIndexScanEdges(t *testing.T) {
	leads := []struct {
		name string
		lead func(rng *statutil.RNG, i int) float64
	}{
		{"distinct", func(rng *statutil.RNG, _ int) float64 { return rng.NormFloat64() }},
		// Three values over the whole window: every block boundary past the
		// first block splits a run of equal keys.
		{"ties", func(rng *statutil.RNG, _ int) float64 { return float64(rng.Intn(3)) }},
		{"nonfinite", func(rng *statutil.RNG, i int) float64 {
			return []float64{math.NaN(), math.Inf(1), math.Inf(-1), rng.NormFloat64(), rng.NormFloat64()}[i%5]
		}},
	}
	for _, dim := range []int{3, 20} {
		for _, n := range []int{1, 15, 16, 17, 33, 200} {
			for _, ld := range leads {
				rng := statutil.NewRNG(int64(31*n+dim), "scan-edges-"+ld.name)
				points := linalg.NewMatrix(n, dim)
				for i := 0; i < n; i++ {
					row := points.Row(i)
					for j := range row {
						row[j] = rng.NormFloat64()
					}
					row[0] = ld.lead(rng, i)
				}
				lo, hi := math.Inf(1), math.Inf(-1)
				for i := 0; i < n; i++ {
					if x := points.At(i, 0); !math.IsInf(x, 0) && !math.IsNaN(x) {
						lo, hi = min(lo, x), max(hi, x)
					}
				}
				firsts := []struct {
					name  string
					first float64
				}{
					{"below", lo - 1}, {"above", hi + 1}, {"equal", points.At(n/2, 0)},
					{"nan", math.NaN()}, {"+inf", math.Inf(1)}, {"-inf", math.Inf(-1)},
				}
				for _, metric := range []Distance{Euclidean, Cosine} {
					ix := NewIndex(points, metric)
					if again := NewIndex(points, metric); !slices.Equal(again.order, ix.order) {
						t.Fatalf("dim=%d n=%d %s: two builds sort the rows %v and %v", dim, n, ld.name, ix.order, again.order)
					}
					if ld.name == "ties" && n == 200 && !slices.ContainsFunc(ix.keys[1:], func(key float64) bool { return key == 0 || key == 1 }) {
						t.Fatalf("dim=%d: no block of the 200 ties starts inside a run of equal keys: %v", dim, ix.keys)
					}
					for _, f := range firsts {
						q := make([]float64, dim)
						for j := range q {
							q[j] = rng.NormFloat64()
						}
						q[0] = f.first
						for _, k := range []int{1, 3, n, n + 1} {
							ctx := fmt.Sprintf("avx2=%v dim=%d n=%d leads=%s metric=%v query=%s k=%d",
								linalg.VectorKernels(), dim, n, ld.name, metric, f.name, k)
							want, err := Nearest(points, q, k, metric)
							if err != nil {
								t.Fatal(err)
							}
							got, err := ix.Nearest(q, k)
							if err != nil {
								t.Fatal(err)
							}
							mustEqualNeighbors(t, ctx, got, want)
						}
					}
				}
			}
		}
	}
}
