package testutil

import (
	"strings"
	"testing"
)

var sink [][]float64

func TestLargeAllocSites(t *testing.T) {
	const block = 1 << 20
	if sites := LargeAllocSites(block, func() {
		for i := 0; i < 64; i++ {
			sink = append(sink, make([]float64, 1<<10)) // 8 KiB each
		}
	}); len(sites) != 0 {
		t.Fatalf("small allocations reported as large: %v", sites)
	}
	sites := LargeAllocSites(block, func() {
		sink = append(sink, make([]float64, block/8), make([]float64, 1<<10))
	})
	if len(sites) != 1 || !strings.Contains(sites[0], "TestLargeAllocSites") || !strings.HasPrefix(sites[0], "1 × 1048576 B") {
		t.Fatalf("one 1 MiB allocation reported as %v", sites)
	}
	sink = nil
}
