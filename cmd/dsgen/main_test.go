package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/workload"
)

// TestRunWritesLabeledCSV runs the README's workload command. Its CSV is
// testdata/workload.csv byte for byte (cmd/whatif's test reads that file;
// after a deliberate simulator change, regenerate it with
// `go run ./cmd/dsgen -count 60 -machine prod32:32 -out cmd/dsgen/testdata/workload.csv`).
func TestRunWritesLabeledCSV(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-count", "60", "-machine", "prod32:32"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("testdata/workload.csv")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stdout.Bytes(), golden) {
		t.Error("CSV differs from testdata/workload.csv")
	}
	out := filepath.Join(t.TempDir(), "workload.csv")
	if err := run([]string{"-count", "60", "-machine", "prod32:32", "-out", out}, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	if written, err := os.ReadFile(out); err != nil || !bytes.Equal(written, golden) {
		t.Errorf("-out file differs from testdata/workload.csv (%v)", err)
	}
	rows, err := dataset.ReadCSV(&stdout)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 60 {
		t.Fatalf("%d CSV rows, want 60", len(rows))
	}

	// The summary names each category present once, in workload.Category
	// order, and the counts add up to the rows written.
	m := regexp.MustCompile(`^generated 60 queries on prod32-32cpu \(.*\):((?: \w+=\d+)+)\n$`).FindStringSubmatch(stderr.String())
	if m == nil {
		t.Fatalf("summary line %q", stderr.String())
	}
	var want []string
	total := 0
	for cat := workload.Feather; cat < workload.NumCategories; cat++ {
		n := 0
		for _, r := range rows {
			if r.Category == cat.String() {
				n++
			}
		}
		if n > 0 {
			want = append(want, fmt.Sprintf("%s=%d", cat, n))
		}
		total += n
	}
	if got := strings.Fields(m[1]); strings.Join(got, " ") != strings.Join(want, " ") || total != 60 {
		t.Errorf("summary %v, want %v (in category order, %d rows categorized)", got, want, total)
	}
}

func TestRunRejectsUnknownNames(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-schema", "nope"}, &stdout, &stderr); err == nil || !strings.Contains(err.Error(), "unknown schema") {
		t.Errorf("-schema nope: %v", err)
	}
	if err := run([]string{"-machine", "prod32:64"}, &stdout, &stderr); err == nil || !strings.Contains(err.Error(), "bad processor count") {
		t.Errorf("-machine prod32:64: %v", err)
	}
}
