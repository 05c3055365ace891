package qpredict

import (
	"bytes"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/coalesce/coalescetest"
	"repro/internal/obs"
)

// TestStartHoldsTheWindow: Start hands Serve.Window to the router. Under a
// 100 ms window a request arriving while the first is held shares its
// micro-batch: two predicts, one batch of two.
func TestStartHoldsTheWindow(t *testing.T) {
	opts := Default()
	opts.Train.Count = 60
	opts.Serve.Window = Duration(100 * time.Millisecond)
	svc, desc, err := Start(opts, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if desc != "model: 60 queries" {
		t.Errorf("model description %q", desc)
	}
	predict := func() int {
		rec := httptest.NewRecorder()
		svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict",
			strings.NewReader(`{"sql": "SELECT COUNT(*) FROM store_sales"}`)))
		return rec.Code
	}
	batches := obs.GetHistogram("serve.batch.size")
	count, sum := batches.Count(), batches.Sum()
	depth := coalescetest.Depth()
	first := make(chan int, 1)
	go func() { first <- predict() }()
	// The first request is admitted and stays pending: the idle engine is
	// holding it.
	coalescetest.WaitDepth(t, depth+1)
	if code := predict(); code != http.StatusOK {
		t.Fatalf("second predict: %d", code)
	}
	if code := <-first; code != http.StatusOK {
		t.Fatalf("first predict: %d", code)
	}
	if n, size := batches.Count()-count, batches.Sum()-sum; n != 1 || size != 2 {
		t.Fatalf("%d micro-batches of %v queries in all, want one of 2", n, size)
	}
}

// TestParseNotesOnlyOptionFlags: the override note names the option flags
// given beside -config, never the command's own flags, and a command that
// binds only the train block has no daemon flags.
func TestParseNotesOnlyOptionFlags(t *testing.T) {
	path := writeConfig(t, `{"train": {"count": 300, "machine": "prod32:8"}}`)
	fs := flag.NewFlagSet("qpredict", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	sql := fs.String("sql", "", "")
	var note bytes.Buffer
	opts, err := Parse(fs, []string{"-sql", "SELECT 1", "-config", path, "-seed", "7"}, &note, TrainFlags)
	if err != nil {
		t.Fatal(err)
	}
	if *sql != "SELECT 1" || opts.Train.Count != 300 || opts.Train.Machine != "prod32:8" || opts.Train.Seed != 7 {
		t.Errorf("sql %q, train %+v", *sql, opts.Train)
	}
	if got, want := note.String(), "note: -seed override "+path; !strings.HasPrefix(got, want) {
		t.Errorf("note %q, want prefix %q", got, want)
	}
	fs = flag.NewFlagSet("qpredict", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	if _, err := Parse(fs, []string{"-shards", "2"}, io.Discard, TrainFlags); err == nil {
		t.Error("-shards accepted by a command that binds only the train block")
	}
}
