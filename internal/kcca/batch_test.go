package kcca

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/kernels"
	"repro/internal/linalg"
	"repro/internal/parallel"
	"repro/internal/testutil"
)

// referenceProject is the projection as the per-query loops computed it
// before the batch kernels: one Gaussian per training row, centering, the
// TMulVec axpy onto the kernel-PCA basis, the scale by Λ^{−1/2}, and
// cca.ProjectX. Every call it makes is code the batch path no longer runs,
// which is what makes it an oracle.
func referenceProject(m *Model, q []float64) (proj []float64, maxK float64) {
	kq := make([]float64, m.X.Rows)
	for i := range kq {
		kq[i] = kernels.Gaussian(m.X.Row(i), q, m.TauX)
		if kq[i] > maxK {
			maxK = kq[i]
		}
	}
	phi := m.ux.TMulVec(kernels.CenterCross(kq, m.rowMeansX, m.grandX))
	for j := range phi {
		phi[j] /= math.Sqrt(m.lamx[j])
	}
	return m.ccaModel.ProjectX(phi), maxK
}

func mustSameBits(t *testing.T, ctx string, got []float64, gotK float64, want []float64, wantK float64) {
	t.Helper()
	if math.Float64bits(gotK) != math.Float64bits(wantK) {
		t.Fatalf("%s: max kernel %v, reference %v", ctx, gotK, wantK)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d coordinates, reference %d", ctx, len(got), len(want))
	}
	for j := range want {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) && !(math.IsNaN(got[j]) && math.IsNaN(want[j])) {
			t.Fatalf("%s: coordinate %d = %v, reference %v", ctx, j, got[j], want[j])
		}
	}
}

// stockModel trains on the first n stock queries and returns the plan
// vectors of the rest as queries.
func stockModel(tb testing.TB, n, held int) (*Model, [][]float64) {
	tb.Helper()
	x, _ := testutil.StockFeatures(testutil.StockQueries(tb, n+held))
	m, err := Train(x.SliceRows(0, n), DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	qs := make([][]float64, held)
	for i := range qs {
		qs[i] = x.Row(n + i)
	}
	return m, qs
}

// TestProjectBatchMatchesReference: at every batch size and worker count,
// ProjectBatch and ProjectQueryKernel
// return the reference projection bit for bit — including queries far
// outside the training set (an all-zero kernel vector) and a model that came
// back from Save/Load, whose transposed basis was derived on decode.
func TestProjectBatchMatchesReference(t *testing.T) {
	m, qs := stockModel(t, 150, 67)
	far := make([]float64, len(qs[0]))
	for j := range far {
		far[j] = 1e6
	}
	qs[5], qs[40] = far, qs[3] // one outlier, one in-batch duplicate

	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}

	wantP, wantK := make([][]float64, len(qs)), make([]float64, len(qs))
	for i, q := range qs {
		wantP[i], wantK[i] = referenceProject(m, q)
		gotP, gotK := m.ProjectQueryKernel(q)
		mustSameBits(t, fmt.Sprintf("ProjectQueryKernel query %d", i), gotP, gotK, wantP[i], wantK[i])
	}
	if wantK[5] != 0 {
		t.Fatalf("the outlier's kernel vector should be all zeros, max is %v", wantK[5])
	}

	defer parallel.SetMaxProcs(parallel.SetMaxProcs(1))
	for _, w := range []int{1, 2, 7, runtime.NumCPU()} {
		parallel.SetMaxProcs(w)
		for _, size := range []int{0, 1, 2, 3, 4, 5, 63, 64, 65, 67} {
			for name, model := range map[string]*Model{"trained": m, "loaded": loaded} {
				got := model.ProjectBatch(qs[:size])
				if len(got.MaxK) != size {
					t.Fatalf("%s workers=%d size=%d: %d projections", name, w, size, len(got.MaxK))
				}
				for i := range got.MaxK {
					mustSameBits(t, fmt.Sprintf("%s workers=%d size=%d query %d", name, w, size, i), got.Row(i), got.MaxK[i], wantP[i], wantK[i])
				}
				got.Release() // poisoned: the next batch must overwrite every row
			}
		}
	}
}

// TestProjectExactZeroKernelValue builds a model in which one query's
// centered kernel vector is exactly zero at one row, and makes that row of
// the kernel-PCA basis infinite: the reference skips the term (TMulVec's
// v[i] == 0 rule) and stays finite, so a kernel that multiplied it through
// would report NaN. Queries without the zero are infinite or NaN in the
// reference too. (A negative zero cannot arise here — the centering ends in
// an addition of terms that are not −0 — and is covered at the kernel, in
// linalg's TestTMulVecTMatchesTMulVec.)
func TestProjectExactZeroKernelValue(t *testing.T) {
	m, qs := stockModel(t, 120, 6)
	const row = 31
	kq := make([]float64, m.X.Rows)
	for i := range kq {
		kq[i] = kernels.Gaussian(m.X.Row(i), qs[0], m.TauX)
	}
	m.grandX = 0
	m.rowMeansX[row] = kq[row] - linalg.Mean(kq)
	for j := 0; j < m.ux.Cols; j++ {
		m.ux.Set(row, j, math.Inf(1))
	}
	if c := kernels.CenterCross(kq, m.rowMeansX, m.grandX); c[row] != 0 {
		t.Fatalf("centered kernel value at row %d is %v, the construction wants exactly 0", row, c[row])
	}

	got := m.ProjectBatch(qs)
	defer got.Release()
	for i, q := range qs {
		wantP, wantK := referenceProject(m, q)
		mustSameBits(t, fmt.Sprintf("query %d", i), got.Row(i), got.MaxK[i], wantP, wantK)
		for _, v := range wantP {
			if finite := !math.IsNaN(v) && !math.IsInf(v, 0); finite != (i == 0) {
				t.Fatalf("query %d: reference coordinate %v; only the zeroed query should stay finite", i, v)
			}
		}
	}
}

// BenchmarkProjectBatch measures the projection at the daemon's shape — 800
// training queries from dataset.Generate, 24 plan features, automatic rank
// 80 — per query, at batch sizes 1, 4 and 64 (a full coalesced batch, one
// query per parallel task).
func BenchmarkProjectBatch(b *testing.B) {
	m, qs := stockModel(b, testutil.StockTrain, 256)
	for _, size := range []int{1, 4, 64} {
		b.Run(fmt.Sprint(size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i += size {
				lo := i % (len(qs) - size + 1)
				m.ProjectBatch(qs[lo : lo+size]).Release()
			}
		})
	}
}
