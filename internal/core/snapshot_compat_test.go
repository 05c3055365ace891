package core

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
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
// The writer: NewSliding(60, 15) under DefaultOptions with TauDriftTol 0.5
// (at 60 rows the default 0.1 sends nearly every retrain down the full
// path), fed legacyStream's first 90 queries; the retrains at 75 and 90 were
// incremental, so the kernels had been patched 30 times. Probes are pool
// queries 400..404, re-planned.
const (
	legacyCapacity, legacyEvery = 60, 15
	legacySaved, legacyMore     = 90, 30
)

func legacyOptions() Options {
	opt := DefaultOptions()
	opt.KCCA.TauDriftTol = 0.5
	return opt
}

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
func probeJSON(t *testing.T, s *SlidingPredictor, probes []*dataset.Query) []byte {
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
// the older format: it restores, answers the probes byte for byte as the
// writer did, continues for 30 observations exactly like a fresh predictor
// fed the whole 120-observation stream, and its next incremental retrain is
// Train on the slot-order window at the frozen kernel scales.
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
	opt := legacyOptions()

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
	incBefore := kccaInc.Value()
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
		if !bytes.Equal(probeJSON(t, restored, probes), probeJSON(t, fresh, probes)) {
			t.Fatalf("observe %d: restored and fresh predictors predict differently", legacySaved+i)
		}
		if checked || restored.Retrains() == before {
			continue
		}
		// The first retrain after the restore: Train on the window it saw,
		// in slot order, at the kernel scales frozen in the snapshot.
		checked = true
		got := restored.Current().Model()
		refOpt := opt
		refOpt.KCCA.TauX, refOpt.KCCA.TauY = got.TauX, got.TauY
		restored.mu.Lock()
		window := restored.slotWindow()
		restored.mu.Unlock()
		ref, err := Train(window, refOpt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, ref.Model()) {
			t.Fatalf("observe %d: the retrain after the restore is not Train on its window", legacySaved+i)
		}
	}
	if !checked {
		t.Fatal("no retrain ran after the restore")
	}
	if kccaInc.Value()-incBefore != 2*int64(legacyMore/legacyEvery) {
		t.Fatalf("%d of the %d retrains after the restore (both predictors) were incremental; the fixture no longer exercises the restored kernels",
			kccaInc.Value()-incBefore, 2*legacyMore/legacyEvery)
	}
}
