package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/api"
)

const probeSQL = "SELECT COUNT(*) FROM store_sales, item WHERE ss_item_sk = i_item_sk AND i_category = 'v3'"

// runCmd runs the command and returns its stdout and stderr.
func runCmd(t *testing.T, args ...string) (string, string, error) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	err := run(args, &stdout, &stderr)
	return stdout.String(), stderr.String(), err
}

func TestSelfEvaluation(t *testing.T) {
	out, _, err := runCmd(t, "-train", "160")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"self-evaluation on 32 held-out queries:\n", "  within 20% of actual:", "predicted vs actual elapsed time"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

// TestSaveThenLoadPredictsTheSame is the vendor-trains / customer-predicts
// workflow: a saved model, loaded, gives the trained model's prediction.
func TestSaveThenLoadPredictsTheSame(t *testing.T) {
	model := filepath.Join(t.TempDir(), "model.bin")
	trained, _, err := runCmd(t, "-train", "160", "-save", model, "-sql", probeSQL)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(trained, "predicted query type:  ") || !strings.Contains(trained, "\nmessage bytes:         ") {
		t.Fatalf("prediction:\n%s", trained)
	}
	loaded, stderr, err := runCmd(t, "-load", model, "-sql", probeSQL)
	if err != nil {
		t.Fatal(err)
	}
	if loaded != trained || stderr != "loaded model trained on 160 queries\n" {
		t.Errorf("loaded model predicts\n%s(stderr %q), trained one\n%s", loaded, stderr, trained)
	}
}

func TestJSONIsTheWireSchema(t *testing.T) {
	out, _, err := runCmd(t, "-train", "160", "-json", "-sql", probeSQL)
	if err != nil {
		t.Fatal(err)
	}
	var resp api.PredictResponse
	if err := json.Unmarshal([]byte(out), &resp); err != nil {
		t.Fatalf("%v:\n%s", err, out)
	}
	if resp.Version != api.Version || resp.Model == nil || resp.Model.TrainedOn != 160 || len(resp.Results) != 1 {
		t.Fatalf("response %+v", resp)
	}
	if r := resp.Results[0]; r.SQL != probeSQL || r.Metrics == nil || r.Category == "" || r.OptimizerCost <= 0 {
		t.Errorf("result %+v", r)
	}
}

func TestConfigFileAndFlagOverride(t *testing.T) {
	_, stderr, err := runCmd(t, "-config", "../../examples/config/qpredictd.json", "-train", "160", "-sql", probeSQL)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(stderr, "note: -train override ../../examples/config/qpredictd.json") ||
		!strings.Contains(stderr, "generating 160 training queries on research-4") {
		t.Errorf("stderr:\n%s", stderr)
	}
}

func TestErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-train", "160", "-sql", "SELEC nonsense"}, "parsing SQL: sqlparse:"},
		{[]string{"-machine", "prod32:0"}, "bad processor count"},
		{[]string{"-load", filepath.Join(t.TempDir(), "missing.bin"), "-sql", probeSQL}, "opening model:"},
	} {
		if _, _, err := runCmd(t, tc.args...); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: error %v, want %q", tc.args, err, tc.want)
		}
	}
}
