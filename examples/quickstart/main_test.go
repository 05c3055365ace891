package main

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/workload"
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

// TestQuickstart trains on 480 queries and predicts the 40 held out: each
// row has a positive prediction and one of the paper's query types, and the
// full metric vector closes the walkthrough.
func TestQuickstart(t *testing.T) {
	out := stdoutOf(t)
	lines := strings.Split(out, "\n")
	if len(lines) != 48 || lines[0] != "trained on 480 queries" || !strings.HasPrefix(lines[44], "full metric vector for one ") {
		t.Fatalf("quickstart printed:\n%s", out)
	}
	types := map[string]bool{}
	for c := workload.Feather; c < workload.NumCategories; c++ {
		types[c.String()] = true
	}
	for _, row := range lines[3:43] {
		f := strings.Fields(row)
		pred, err := strconv.ParseFloat(f[2], 64)
		if len(f) != 5 || err != nil || pred <= 0 || !types[f[1]] {
			t.Errorf("row %q", row)
		}
	}
}
