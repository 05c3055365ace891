package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/workload"
)

// TestGeneratedWorkloadSizing runs the nightly-batch question on the
// generated workload with a 60 s window, then executes that workload on
// every candidate in the simulator: the recommendation must be the
// smallest configuration whose simulated total actually fits.
func TestGeneratedWorkloadSizing(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-window", "60"}, &stdout, &stderr); err != nil {
		t.Fatalf("%v\n%s", err, stderr.String())
	}
	if !strings.HasSuffix(stdout.String(), "\nrecommendation: prod32-8cpu\n") {
		t.Fatalf("want prod32-8cpu recommended:\n%s", stdout.String())
	}

	// The workload run generates: seed 5+77 on prod32 at 32 CPUs.
	schema := catalog.TPCDS(1)
	var reporting []workload.Template
	for _, tp := range workload.TPCDSTemplates() {
		if tp.Class == "tpcds" {
			reporting = append(reporting, tp)
		}
	}
	ds, err := dataset.Generate(dataset.GenConfig{
		Seed: 82, DataSeed: 1000, Machine: exec.Production32(32),
		Schema: schema, Templates: reporting, Count: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	smallest := ""
	for _, procs := range []int{4, 8, 16, 32} {
		m := exec.Production32(procs)
		actual, err := dataset.ReExecute(ds, schema, 1000, m, 99)
		if err != nil {
			t.Fatal(err)
		}
		var total float64
		for _, q := range actual.Queries {
			total += q.Metrics.ElapsedSec
		}
		t.Logf("%s: simulated total %.1f s", m.Name, total)
		if total <= 60 && smallest == "" {
			smallest = m.Name
		}
	}
	if smallest != "prod32-8cpu" {
		t.Errorf("simulator says %q is the smallest configuration that fits, whatif recommended prod32-8cpu", smallest)
	}
}

// TestDsgenWorkloadCSV feeds whatif the workload file the README's
// `dsgen -count 60 -machine prod32:32` writes (cmd/dsgen's test holds that
// command to this file byte for byte).
func TestDsgenWorkloadCSV(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-workload", "../dsgen/testdata/workload.csv", "-window", "60"}, &stdout, &stderr); err != nil {
		t.Fatalf("%v\n%s", err, stderr.String())
	}
	if !strings.HasPrefix(stderr.String(), "workload: 60 queries; window 60s\n") {
		t.Errorf("stderr %q", stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"\nprod32-4cpu ", "\nprod32-16cpu ", "\nprod32-32cpu ", "\nrecommendation: prod32-8cpu\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}
