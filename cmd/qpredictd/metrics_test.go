package main

import (
	"net/http"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/obs"
)

// TestMetricTableIsTheRegistry: the metric table under docs/API.md's
// Observability heading and the names a daemon registers are one list. A
// daemon booted without -timings serves one predict and one observe and
// answers /v1/model and /v1/shards; then every counter, gauge, total and
// histogram name in obs.Take() matches a name of the table, and every name
// of the table matches one of them. The timers need no switch: the boot's
// training and the predict have been timed.
func TestMetricTableIsTheRegistry(t *testing.T) {
	svc, log, err := bootArgs(t, "-train", "120")
	if err != nil {
		t.Fatalf("boot: %v\n%s", err, log)
	}
	defer svc.Close()
	sql := "SELECT COUNT(*) FROM store_sales"
	if code, raw := call(t, svc, http.MethodPost, "/v1/predict", api.PredictRequest{SQL: sql}); code != http.StatusOK {
		t.Fatalf("predict: %d %s", code, raw)
	}
	observe := api.ObserveRequest{Observations: []api.Observation{{SQL: sql, Metrics: api.Metrics{ElapsedSec: 1}}}}
	if code, raw := call(t, svc, http.MethodPost, "/v1/observe", observe); code != http.StatusAccepted {
		t.Fatalf("observe: %d %s", code, raw)
	}
	for _, path := range []string{"/v1/model", "/v1/shards"} {
		if code, raw := call(t, svc, http.MethodGet, path, nil); code != http.StatusOK {
			t.Fatalf("GET %s: %d %s", path, code, raw)
		}
	}

	snap := obs.Take()
	t.Run("timed without -timings", func(t *testing.T) {
		for _, name := range []string{"serve.predict.seconds", "core.predict.seconds", "core.train.seconds", "kcca.train.seconds", "linalg.eigen.seconds"} {
			if snap.Histograms[name].Count < 1 {
				t.Errorf("%s has no observations", name)
			}
		}
	})
	var names []string
	for _, m := range []map[string]int64{snap.Counters, snap.Gauges} {
		for name := range m {
			names = append(names, name)
		}
	}
	for name := range snap.Totals {
		names = append(names, name)
	}
	for name := range snap.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)

	table := metricTable(t, "../../docs/API.md")
	matched := map[string]bool{}
	var undocumented []string
	for _, name := range names {
		found := false
		for pattern, re := range table {
			if re.MatchString(name) {
				matched[pattern], found = true, true
			}
		}
		if !found {
			undocumented = append(undocumented, name)
		}
	}
	t.Run("every registered name has a row", func(t *testing.T) {
		for _, name := range undocumented {
			t.Errorf("%s is registered but has no row in docs/API.md's metric table", name)
		}
	})
	t.Run("every row names a registered instrument", func(t *testing.T) {
		for pattern := range table {
			if !matched[pattern] {
				t.Errorf("docs/API.md's metric table lists %s, which no instrument registers", pattern)
			}
		}
	})
}

// metricTable reads the first table under the Observability heading of the
// API document and returns each name its first column lists, `{a,b}` forms
// expanded, as an anchored pattern in which `<id>` stands for a shard index
// and `<operator>` for an operator name.
func metricTable(t *testing.T, path string) map[string]*regexp.Regexp {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(raw), "\n## Observability\n")
	if !ok {
		t.Fatalf("%s has no Observability section", path)
	}
	var rows []string
	for _, line := range strings.Split(section, "\n") {
		if strings.HasPrefix(line, "|") {
			rows = append(rows, line)
		} else if len(rows) > 0 {
			break
		}
	}
	if len(rows) < 3 {
		t.Fatalf("%s: no metric table under Observability", path)
	}
	code := regexp.MustCompile("`([^`]+)`")
	placeholder := strings.NewReplacer(`<id>`, `[0-9]+`, `<operator>`, `[a-z_]+`)
	table := map[string]*regexp.Regexp{}
	for _, row := range rows[2:] { // the header and its rule
		first := strings.Split(row, "|")[1]
		for _, m := range code.FindAllStringSubmatch(first, -1) {
			for _, name := range expandBraces(m[1]) {
				table[name] = regexp.MustCompile("^" + placeholder.Replace(regexp.QuoteMeta(name)) + "$")
			}
		}
	}
	return table
}

// expandBraces expands each `{a,b}` of a name into one name per choice.
func expandBraces(name string) []string {
	open := strings.IndexByte(name, '{')
	if open < 0 {
		return []string{name}
	}
	end := open + strings.IndexByte(name[open:], '}')
	var out []string
	for _, choice := range strings.Split(name[open+1:end], ",") {
		out = append(out, expandBraces(name[:open]+choice+name[end+1:])...)
	}
	return out
}
