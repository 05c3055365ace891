package core

import (
	"strings"
	"testing"

	"repro/internal/testutil"
)

// BenchmarkRetrainStock measures one steady-state retrain interval at the
// daemon's stock shape — window 500, retrain every 100, automatic rank (80)
// — on a TPC-DS-simulated stream from dataset.Generate, the data the daemon
// sees, through the whole observe path (kcca's BenchmarkRetrainIncremental
// times the retrainer alone on the same stream, up to n = 4000). One op is
// one retrain interval: 100 observations, the last of which retrains inline
// and accounts for ~97% of the op's time and bytes. It fails if a steady-state interval
// allocates any object as large as an n×n float64 block: the dense solve
// must run in the retrainer's retained scratch, not in a fresh matrix per
// retrain.
func BenchmarkRetrainStock(b *testing.B) {
	const window, every = 500, 100
	qs := testutil.StockQueries(b, window+8*every)
	s, err := NewSliding(window, every, DefaultOptions())
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
	// Fill the window (full trainings while it grows), then one untimed
	// interval so the timed ones start from an incremental retrain's state.
	observe(window + every)

	incBefore, rebuildsBefore := kccaInc.Value(), kccaFull.Value()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		observe(every)
	}
	b.StopTimer()
	if got := kccaInc.Value() - incBefore; got != int64(b.N) {
		b.Fatalf("%d of %d retrains were served from the maintained kernels (%d rebuilt them)",
			got, b.N, kccaFull.Value()-rebuildsBefore)
	}

	// One more interval under the allocation profile: whatever a retrain
	// allocates (n×rank eigenvectors, the CCA fit, the k-NN index), no single
	// object may be as large as an n×n float64 block.
	if sites := testutil.LargeAllocSites(window*window*8, func() { observe(every) }); len(sites) > 0 {
		b.Fatalf("a steady-state retrain allocated %dx%d-sized blocks:\n%s", window, window, strings.Join(sites, "\n"))
	}
}
