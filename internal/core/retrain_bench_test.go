package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/testutil"
)

// The daemon's stock sliding shape: window 500, retrain every 100,
// automatic rank (80).
const stockWindow, stockEvery = 500, 100

// BenchmarkRetrainStock measures one steady-state retrain interval at the
// daemon's stock shape on a TPC-DS-simulated stream from dataset.Generate,
// the data the daemon sees, through the whole observe path. One op is one
// retrain interval: 100 observations (ring writes), the last of which
// retrains inline and accounts for nearly all of the op's time and bytes.
// Every timed interval must retrain exactly once. Beside ms per op it
// reports, in ms per retrain, the query view's kernel matrix and its
// centering (kernels.matrix, kernels.center) and its eigensolve
// (linalg.eigen). It fails if a steady-state interval allocates an object as
// large as an n×n float64 block anywhere but the one kernel matrix that
// kcca.Train builds, centers and decomposes in place.
func BenchmarkRetrainStock(b *testing.B) {
	qs := testutil.StockQueries(b, stockWindow+8*stockEvery)
	s, err := NewSliding(stockWindow, stockEvery, DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	next := 0
	observe := func(count int) {
		for i := 0; i < count; i++ {
			if err := s.Observe(qs[next%len(qs)]); err != nil {
				b.Fatal(err)
			}
			next++
		}
	}
	// Fill the window, then one untimed interval so the timed ones start
	// from a steady-state retrain.
	observe(stockWindow + stockEvery)

	obs.Reset()
	fullBefore := kccaFull.Value()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		observe(stockEvery)
	}
	b.StopTimer()
	for _, stage := range []string{"kernels.matrix", "kernels.center", "linalg.eigen"} {
		ms := obs.GetHistogram(stage+".seconds").Sum() * 1e3 / float64(b.N)
		b.ReportMetric(ms, stage+"-ms/op")
	}
	if got := kccaFull.Value() - fullBefore; got != int64(b.N) {
		b.Fatalf("%d retrains in %d intervals", got, b.N)
	}

	// One more interval under the allocation profile: whatever else a
	// retrain allocates (n×rank eigenvectors, the whitening, the k-NN
	// index), the only n×n-sized object is the kernel matrix.
	sites := testutil.LargeAllocSites(stockWindow*stockWindow*8, func() { observe(stockEvery) })
	objs := 0
	for _, site := range sites {
		var n int
		if _, err := fmt.Sscanf(site, "%d ×", &n); err != nil {
			b.Fatal(err)
		}
		objs += n
		if !strings.Contains(site, "repro/internal/kernels.matrix:") {
			b.Fatalf("a steady-state retrain allocated a %dx%d-sized block outside the kernel matrix:\n%s",
				stockWindow, stockWindow, strings.Join(sites, "\n"))
		}
	}
	if objs != 1 {
		b.Fatalf("a steady-state retrain allocated %d %dx%d-sized blocks, want the one kernel matrix:\n%s",
			objs, stockWindow, stockWindow, strings.Join(sites, "\n"))
	}
}

// TestStockSnapshotSize: a snapshot at the stock shape carries the window's
// SQL and metrics and what training fitted — no kernel matrices and no
// training projections, which Load derives. With the 500×500 kernel matrices
// of both views the snapshot was about 6 MB; with both training projections,
// 1.4 MB; with the query projection, 985 kB; without, 624 kB; with the
// whitening's triangular weights in place of the rotated ones, 598 kB.
func TestStockSnapshotSize(t *testing.T) {
	if testing.Short() {
		t.Skip("trains seven 500-row windows")
	}
	qs := testutil.StockQueries(t, stockWindow+2*stockEvery)
	s, err := NewSliding(stockWindow, stockEvery, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		if err := s.Observe(q); err != nil {
			t.Fatalf("observe %d: %v", i, err)
		}
	}
	var snap bytes.Buffer
	if err := s.SaveState(&snap); err != nil {
		t.Fatal(err)
	}
	if n := snap.Len(); n >= 656_000 {
		t.Fatalf("stock snapshot is %d bytes, want under 656 kB", n)
	}
}
