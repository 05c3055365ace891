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

// TestWorkloadManagement: predictive admission wastes less killed work and
// serves interactive queries faster than blind admission.
func TestWorkloadManagement(t *testing.T) {
	out := stdoutOf(t)
	i := strings.Index(out, "\npredictive admission avoids ")
	if !strings.HasPrefix(out, "arriving queries: 160 ") || i < 0 {
		t.Fatalf("workloadmgmt printed:\n%s", out)
	}
	var avoided, blindLatency, predLatency float64
	if _, err := fmt.Sscanf(out[i:], "\npredictive admission avoids %f seconds of killed work and cuts mean interactive\nlatency from %fs to %fs",
		&avoided, &blindLatency, &predLatency); err != nil {
		t.Fatal(err)
	}
	if avoided <= 0 || predLatency >= blindLatency {
		t.Errorf("avoided %.0f s of killed work; latency %.0f s -> %.0f s", avoided, blindLatency, predLatency)
	}
}
