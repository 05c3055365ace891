package core

import (
	"math"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/kernels"
	"repro/internal/knn"
	"repro/internal/linalg"
	"repro/internal/statutil"
)

// scanDistScale is the distance half of referenceScales as it was before the
// index answered it: for each sampled training point, linalg.Dist to every
// other row, a full sort, the mean of the k smallest. It is the reference
// the index-backed version must match to the bit.
func scanDistScale(p *Predictor) float64 {
	n := p.model.N()
	idx := statutil.NewRNG(17, "confscale").SampleInts(n, min(n, 60))
	k := p.opt.KNN.K
	if k < 1 {
		k = 3
	}
	var dists []float64
	for _, i := range idx {
		row := p.model.QueryProj.Row(i)
		var all []float64
		for j := 0; j < n; j++ {
			if j != i {
				all = append(all, linalg.Dist(row, p.model.QueryProj.Row(j)))
			}
		}
		sort.Float64s(all)
		if kk := min(k, len(all)); kk > 0 {
			dists = append(dists, linalg.Mean(all[:kk]))
		}
	}
	scale := 3 * statutil.Quantile(dists, 0.9)
	if !(scale > 0) {
		scale = 1
	}
	return scale
}

// scanKernelScale is the kernel half of referenceScales as it was before the
// cross-kernel vector answered it: one kernels.Gaussian per other training
// row of each sampled point, the largest kept, and the median over the
// sample.
func scanKernelScale(p *Predictor) float64 {
	n := p.model.N()
	var maxKs []float64
	for _, i := range statutil.NewRNG(17, "confscale").SampleInts(n, min(n, 60)) {
		best := 0.0
		for j := 0; j < n; j++ {
			if kv := kernels.Gaussian(p.model.X.Row(i), p.model.X.Row(j), p.model.TauX); j != i && kv > best {
				best = kv
			}
		}
		maxKs = append(maxKs, best)
	}
	scale := statutil.Quantile(maxKs, 0.5)
	if !(scale > 0) {
		scale = 1
	}
	return scale
}

// TestReferenceScalesMatchScan holds confScale, now read off the generation's
// k-NN index, to the scan it replaced — bit for bit, on a window where many
// rows are duplicated (so sampled points sit at distance 0 from rows of
// smaller and larger index, and whole neighbour sets tie), for k below, at
// and above the number of copies, under both metrics, and on a small window.
// The kernel scale is held to the pairwise Gaussian scan the same way. The
// calibration must also leave the index's served-search counters at zero:
// /v1/model reports them per generation.
func TestReferenceScalesMatchScan(t *testing.T) {
	train, _ := trainTest(t)
	dup := append([]*dataset.Query{}, train[:150]...)
	for c := 0; c < 4; c++ {
		dup = append(dup, train[:30]...) // five copies of the first 30
	}
	windows := map[string][]*dataset.Query{"duplicated": dup, "plain": train[:200], "small": train[:40]}
	for name, window := range windows {
		for _, kopt := range []knn.Options{
			{K: 1}, {K: 3}, {K: 4}, {K: 7}, {K: 3, Distance: knn.Cosine},
		} {
			opt := DefaultOptions()
			opt.KNN = kopt
			p, err := Train(window, opt)
			if err != nil {
				t.Fatal(err)
			}
			want, wantK := scanDistScale(p), scanKernelScale(p)
			got, gotK := p.referenceScales()
			if math.Float64bits(got) != math.Float64bits(want) || got != p.confScale {
				t.Errorf("%s %+v: confScale %v (trained with %v), the scan gives %v", name, kopt, got, p.confScale, want)
			}
			if math.Float64bits(gotK) != math.Float64bits(wantK) {
				t.Errorf("%s %+v: kernel scale %v, the Gaussian scan gives %v", name, kopt, gotK, wantK)
			}
			if st := p.index.Stats(); st.Searches != 0 || st.PointsScored != 0 {
				t.Errorf("%s %+v: calibration counted as served searches: %+v", name, kopt, st)
			}
		}
	}
}
