package core

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"repro/internal/catalog"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/optimizer"
	"repro/internal/sqlparse"
	"repro/internal/workload"
)

// testdata/legacy-sliding holds a SaveState snapshot written by the sliding
// predictor while it still kept incremental row sums and warm eigenbases in
// its maintained state, and the predictions it then gave for five probes.
// Never regenerate these files: they stand for every state directory a
// daemon of that format left behind.
//
// The writer: NewSliding(60, 15) under DefaultOptions with a τ-drift
// tolerance of 0.5 (an option since removed, which gob skips), fed the pool's
// first 90 queries, re-planned; the retrains at 75 and 90 were incremental,
// so the kernels had been patched 30 times. Probes are pool queries
// 400..404, re-planned.
const (
	legacyCapacity, legacyEvery = 60, 15
	legacySaved, legacyMore     = 90, 30
)

// legacyPlan re-plans SQL the way the daemon's observe path does, on the
// schema, data seed and machine of the core test pool.
func legacyPlan() PlanFunc {
	planner := optimizer.NewPlanner(catalog.TPCDS(1), 3, optimizer.DefaultConfig(exec.Research4().Processors))
	return func(sql string) (*dataset.Query, error) {
		ast, err := sqlparse.Parse(sql)
		if err != nil {
			return nil, err
		}
		plan, err := planner.Plan(ast)
		if err != nil {
			return nil, err
		}
		return &dataset.Query{SQL: sql, AST: ast, Plan: plan}, nil
	}
}

// legacyReplan turns pool queries into observations as /v1/observe would:
// re-planned from their SQL, with the measured metrics attached.
func legacyReplan(t *testing.T, src []*dataset.Query) []*dataset.Query {
	t.Helper()
	plan := legacyPlan()
	out := make([]*dataset.Query, len(src))
	for i, s := range src {
		q, err := plan(s.SQL)
		if err != nil {
			t.Fatal(err)
		}
		q.Metrics = s.Metrics
		q.Category = workload.Categorize(q.Metrics.ElapsedSec)
		out[i] = q
	}
	return out
}

// probeJSON encodes the predictions of probes the way the fixture's were
// written (Memo cleared: it is a per-cache-entry slot, not part of the
// answer).
func probeJSON(t *testing.T, s interface {
	PredictQuery(*dataset.Query) (*Prediction, error)
}, probes []*dataset.Query) []byte {
	t.Helper()
	preds := make([]Prediction, len(probes))
	for i, q := range probes {
		p, err := s.PredictQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		preds[i] = *p
		preds[i].Memo = nil
	}
	js, err := json.MarshalIndent(preds, "", "\t")
	if err != nil {
		t.Fatal(err)
	}
	return append(js, '\n')
}

// TestLegacySlidingSnapshotRestores holds the current code to a snapshot in
// the older format: it restores and answers the probes byte for byte as the
// writer did until its next retrain, which is Train on the slot-order
// window; from then on it predicts exactly like a fresh predictor fed the
// whole 120-observation stream, at the same generation throughout.
func TestLegacySlidingSnapshotRestores(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The fixture's floats were computed on amd64; another architecture
		// may fuse multiply-adds and round differently. The comparison is
		// exact or it is nothing, so it is not loosened.
		t.Skipf("fixture was written on amd64, this is %s", runtime.GOARCH)
	}
	ds := pool(t)
	stream := legacyReplan(t, ds.Queries[:legacySaved+legacyMore])
	probes := legacyReplan(t, ds.Queries[400:405])
	opt := DefaultOptions()

	state, err := os.ReadFile("testdata/legacy-sliding/state.snap")
	if err != nil {
		t.Fatal(err)
	}
	wantProbes, err := os.ReadFile("testdata/legacy-sliding/probes.json")
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreSliding(bytes.NewReader(state), legacyCapacity, legacyEvery, opt, legacyPlan())
	if err != nil {
		t.Fatal(err)
	}
	if got := probeJSON(t, restored, probes); !bytes.Equal(got, wantProbes) {
		t.Fatalf("restored predictor's probe predictions differ from the writer's:\n%s\nwant\n%s", got, wantProbes)
	}

	fresh, err := NewSliding(legacyCapacity, legacyEvery, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range stream[:legacySaved] {
		if err := fresh.Observe(q); err != nil {
			t.Fatalf("fresh observe %d: %v", i, err)
		}
	}
	checked := false
	for i, q := range stream[legacySaved:] {
		before := restored.Retrains()
		if err := restored.Observe(q); err != nil {
			t.Fatalf("restored observe %d: %v", legacySaved+i, err)
		}
		if err := fresh.Observe(q); err != nil {
			t.Fatalf("fresh observe %d: %v", legacySaved+i, err)
		}
		if restored.Retrains() != fresh.Retrains() {
			t.Fatalf("observe %d: restored generation %d, fresh %d", legacySaved+i, restored.Retrains(), fresh.Retrains())
		}
		if !checked && restored.Retrains() != before {
			// The first retrain after the restore: Train on the window it
			// saw, in slot order.
			checked = true
			ref, err := Train(window(restored), opt)
			if err != nil {
				t.Fatal(err)
			}
			if !sameTrained(restored.Current(), ref) {
				t.Fatalf("observe %d: the retrain after the restore is not Train on its window", legacySaved+i)
			}
		}
		// Until then the restored predictor serves the writer's model,
		// trained at scales a retrain reused, which a fresh predictor no
		// longer reproduces; from then on both are Train on one window.
		want := wantProbes
		if checked {
			want = probeJSON(t, fresh, probes)
		}
		if !bytes.Equal(probeJSON(t, restored, probes), want) {
			t.Fatalf("observe %d: restored predictor predicts differently (first retrain since restore done: %v)", legacySaved+i, checked)
		}
	}
	if !checked {
		t.Fatal("no retrain ran after the restore")
	}
}

// testdata/pre-43 holds files written by the last build whose models carried
// the performance projection (KyB: kcca PerfProj, cca MeanY and WY) and
// whose sliding snapshots carried frozen kernel scales, and the answers
// that build gave for five probes. Never regenerate them: they stand for
// every model file and state directory such a build left behind.
//
// The writer, under DefaultOptions, re-planned the pool's first 300 queries
// as legacyReplan does and wrote
//   - model.bin: core.Save of Train on the first 60;
//   - state.snap: SaveState of NewSliding(60, 15) after the first 255
//     observations, with scales frozen at 60 rows; that build's next retrain,
//     at 270, reused them;
//   - model-probes.json, state-probes.json: both predictors' answers for pool
//     queries 400..404, re-planned, encoded as probeJSON does.
const pre43Saved = 255

// TestPre43FilesLoad: a model file and a snapshot from a build that still
// wrote the performance projection and frozen scales both load, answer the
// probes byte for byte as that build did, and the restored window's next
// retrain is Train on the window.
func TestPre43FilesLoad(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("fixture was written on amd64, this is %s", runtime.GOARCH)
	}
	ds := pool(t)
	probes := legacyReplan(t, ds.Queries[400:405])
	read := func(name string) []byte {
		t.Helper()
		b, err := os.ReadFile("testdata/pre-43/" + name)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	t.Run("model file", func(t *testing.T) {
		m, err := Load(bytes.NewReader(read("model.bin")))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := probeJSON(t, m, probes), read("model-probes.json"); !bytes.Equal(got, want) {
			t.Fatalf("loaded model's probe predictions differ from the writer's:\n%s\nwant\n%s", got, want)
		}
	})

	t.Run("snapshot", func(t *testing.T) {
		opt := DefaultOptions()
		s, err := RestoreSliding(bytes.NewReader(read("state.snap")), 60, 15, opt, legacyPlan())
		if err != nil {
			t.Fatal(err)
		}
		if got, want := probeJSON(t, s, probes), read("state-probes.json"); !bytes.Equal(got, want) {
			t.Fatalf("restored predictor's probe predictions differ from the writer's:\n%s\nwant\n%s", got, want)
		}
		before := s.Retrains()
		for _, q := range legacyReplan(t, ds.Queries[pre43Saved:pre43Saved+15]) {
			if err := s.Observe(q); err != nil {
				t.Fatal(err)
			}
		}
		if s.Retrains() != before+1 {
			t.Fatalf("%d retrains after 15 observations, want 1", s.Retrains()-before)
		}
		want, err := Train(window(s), opt)
		if err != nil {
			t.Fatal(err)
		}
		if !sameTrained(s.Current(), want) {
			t.Fatal("the restored window's next retrain is not Train on the window")
		}
	})
}
