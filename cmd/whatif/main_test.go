package main

import (
	"bytes"
	"errors"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/cli"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/serve"
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
// command to this file byte for byte). Its 60 queries mix reporting and
// problem templates, so every candidate trains on both classes and no row
// predicts at zero confidence. The verdict is held to the simulator: the
// file's SQL, executed on each candidate, picks the smallest configuration
// that fits the window, or none — and then whatif must say no candidate fits
// and exit 2.
func TestDsgenWorkloadCSV(t *testing.T) {
	const path, window = "../dsgen/testdata/workload.csv", 60
	var stdout, stderr bytes.Buffer
	err := run([]string{"-workload", path, "-window", strconv.Itoa(window)}, &stdout, &stderr)
	if !strings.HasPrefix(stderr.String(), "workload: 60 queries; window 60s\n") {
		t.Errorf("stderr %q", stderr.String())
	}
	out := stdout.String()
	rows := 0
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) != 5 || !strings.HasPrefix(f[0], "prod32-") {
			continue
		}
		rows++
		if conf, perr := strconv.ParseFloat(f[3], 64); perr != nil || conf <= 0 {
			t.Errorf("%s: min conf %q, want above 0", f[0], f[3])
		}
	}
	if rows != 4 {
		t.Errorf("%d candidate rows, want 4:\n%s", rows, out)
	}

	f, ferr := os.Open(path)
	if ferr != nil {
		t.Fatal(ferr)
	}
	csvRows, ferr := dataset.ReadCSV(f)
	f.Close()
	if ferr != nil {
		t.Fatal(ferr)
	}
	schema := catalog.TPCDS(1)
	plan := serve.PlannerFunc(schema, 1000, exec.Production32(32))
	ds := &dataset.Dataset{}
	for i, row := range csvRows {
		q, perr := plan(row.SQL)
		if perr != nil {
			t.Fatal(perr)
		}
		q.ID = i
		ds.Queries = append(ds.Queries, q)
	}
	smallest := ""
	for _, procs := range []int{4, 8, 16, 32} {
		m := exec.Production32(procs)
		actual, xerr := dataset.ReExecute(ds, schema, 1000, m, 99)
		if xerr != nil {
			t.Fatal(xerr)
		}
		var total float64
		for _, q := range actual.Queries {
			total += q.Metrics.ElapsedSec
		}
		t.Logf("%s: simulated total %.1f s", m.Name, total)
		if total <= window && smallest == "" {
			smallest = m.Name
		}
	}
	if smallest == "" {
		if !errors.Is(err, cli.ExitCode(2)) || !strings.HasSuffix(out, "\nno candidate fits — recommend a larger system or a longer window\n") {
			t.Fatalf("the simulator fits no candidate; whatif returned %v:\n%s", err, out)
		}
		return
	}
	if err != nil || !strings.HasSuffix(out, "\nrecommendation: "+smallest+"\n") {
		t.Fatalf("the simulator says %s is the smallest configuration that fits; whatif returned %v:\n%s", smallest, err, out)
	}
}
