package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// stdoutOf runs main with os.Stdout sent to a file and returns what it
// printed.
func stdoutOf(t *testing.T) string {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	main()
	os.Stdout = saved
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestAnomaly: foreign-schema queries score lower confidence than
// in-distribution ones, and the p10 threshold flags most of them while
// keeping about 90% of in-distribution traffic.
func TestAnomaly(t *testing.T) {
	out := stdoutOf(t)
	var in, p10, foreign, threshold float64
	var kept, nIn, flagged, nForeign int
	lines := strings.Split(out, "\n")
	if len(lines) != 8 {
		t.Fatalf("anomaly printed:\n%s", out)
	}
	for _, scan := range []struct {
		line   string
		format string
		args   []any
	}{
		{lines[1], "  in-distribution TPC-DS queries:   %f  [%f,", []any{&in, &p10}},
		{lines[2], "  customer-schema queries (foreign): %f", []any{&foreign}},
		{lines[4], "with the threshold set at %f", []any{&threshold}},
		{lines[5], "  %d/%d in-distribution", []any{&kept, &nIn}},
		{lines[6], "  %d/%d foreign", []any{&flagged, &nForeign}},
	} {
		if _, err := fmt.Sscanf(scan.line, scan.format, scan.args...); err != nil {
			t.Fatalf("%q: %v", scan.line, err)
		}
	}
	if foreign >= in || threshold != p10 {
		t.Errorf("medians in %.2f, foreign %.2f; threshold %.2f, in-distribution p10 %.2f", in, foreign, threshold, p10)
	}
	if nIn != 40 || nForeign != 40 || kept < 36 || flagged <= nForeign/2 {
		t.Errorf("%d/%d in-distribution kept, %d/%d foreign flagged", kept, nIn, flagged, nForeign)
	}
}
