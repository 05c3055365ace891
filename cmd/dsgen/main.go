// Command dsgen generates a query workload, runs it on a simulated machine
// configuration, and writes the labeled dataset (SQL, optimizer cost,
// measured metrics, runtime category) as CSV.
//
// Usage:
//
//	dsgen -schema tpcds -machine research4 -count 500 -seed 1 -out pool.csv
//	dsgen -schema customer -machine prod32:8 -count 100
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/catalog"
	"repro/internal/cli"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/workload"
)

func main() { cli.Main(run) }

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	fs.SetOutput(stderr)
	schemaName := fs.String("schema", "tpcds", "schema: tpcds or customer")
	machineName := fs.String("machine", "research4", "machine: research4 or prod32:<cpus>")
	count := fs.Int("count", 500, "number of queries to generate")
	seed := fs.Int64("seed", 1, "workload seed")
	dataSeed := fs.Int64("dataseed", 1000, "data realization seed")
	sf := fs.Float64("sf", 1, "TPC-DS scale factor")
	out := fs.String("out", "", "output CSV path (default stdout)")
	fs.Parse(args)

	var (
		schema    = catalog.TPCDS(*sf)
		templates = workload.TPCDSTemplates()
	)
	switch *schemaName {
	case "tpcds":
	case "customer":
		schema = catalog.CustomerSchema()
		templates = workload.CustomerTemplates()
	default:
		return fmt.Errorf("unknown schema %q (want tpcds or customer)", *schemaName)
	}

	machine, err := exec.ParseMachine(*machineName)
	if err != nil {
		return err
	}

	ds, err := dataset.Generate(dataset.GenConfig{
		Seed:      *seed,
		DataSeed:  *dataSeed,
		Machine:   machine,
		Schema:    schema,
		Templates: templates,
		Count:     *count,
	})
	if err != nil {
		return fmt.Errorf("generating dataset: %v", err)
	}

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return fmt.Errorf("creating %s: %v", *out, err)
		}
		defer f.Close()
		w = f
	}
	if err := ds.WriteCSV(w); err != nil {
		return fmt.Errorf("writing CSV: %v", err)
	}

	counts := ds.CategoryCounts()
	fmt.Fprintf(stderr, "generated %d queries on %s:", len(ds.Queries), machine)
	for cat := workload.Feather; cat < workload.NumCategories; cat++ {
		if counts[cat] > 0 {
			fmt.Fprintf(stderr, " %s=%d", cat, counts[cat])
		}
	}
	fmt.Fprintln(stderr)
	return nil
}
