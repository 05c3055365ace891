package model

import (
	"bytes"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/sqlparse"
	"repro/internal/wal"
	"repro/internal/workload"
)

// TestKCCAAdapterEquivalence: the KCCA adapter is a pass-through — every
// prediction through the Model interface is bit-identical to the wrapped
// core.Predictor's own answer, and a save/load round trip through the zoo
// container preserves that.
func TestKCCAAdapterEquivalence(t *testing.T) {
	train, test := splits(t)
	p, err := core.Train(train, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	m := WrapKCCA(p)
	if m.Predictor() != p {
		t.Fatal("adapter does not expose the wrapped predictor")
	}
	reqs := requests(test)
	direct := p.Predict(reqs...)
	samePredictions(t, m.Predict(reqs...), direct)

	// Per-query entrypoint agrees too (same code path, asserted anyway —
	// it is what the CLI serves).
	for i, q := range test {
		pred, err := p.PredictQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		if direct[i].Prediction.Metrics != pred.Metrics {
			t.Fatalf("query %d: batch and single-query predictions differ", i)
		}
	}

	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	samePredictions(t, m2.Predict(reqs...), direct)
	if m2.Fingerprint() != m.Fingerprint() {
		t.Fatalf("fingerprint changed across save/load: %#x != %#x", m2.Fingerprint(), m.Fingerprint())
	}
}

// retrainShapes are the window shapes of the sliding-window suites below:
// the 150-query fixture cycles through the ring (400 is not a multiple of
// 150, so the large window keeps changing), and every shape must see a
// retrain at frozen kernel scales.
var retrainShapes = []struct {
	name                  string
	capacity, every, rank int
	observes              int
}{
	// At 60 rows this fixture trips the τ-drift guard on most retrains; the
	// one at 130 keeps the frozen scales.
	{name: "auto-rank", capacity: 60, every: 10, observes: 150},
	{name: "fixed-rank", capacity: 400, every: 50, rank: 2, observes: 470},
}

// incrementalRetrains reads the sliding predictor's count of retrains at
// frozen kernel scales.
func incrementalRetrains() int64 { return obs.GetCounter("kcca.retrain.incremental").Value() }

// requireIncremental fails unless a retrain at frozen scales ran since
// before.
func requireIncremental(t *testing.T, before int64) {
	t.Helper()
	if incrementalRetrains() == before {
		t.Fatal("no retrain kept the frozen kernel scales")
	}
}

// TestKCCAIncrementalRetrainEquivalence: after a sliding window's
// retrains at frozen scales, wrapping the current predictor and round-tripping
// it through the zoo container still predicts bit-identically to the live
// predictor — the invariant the observe loop's hot swap depends on.
func TestKCCAIncrementalRetrainEquivalence(t *testing.T) {
	for _, sh := range retrainShapes {
		t.Run(sh.name, func(t *testing.T) {
			pool := fixture(t)
			opt := core.DefaultOptions()
			opt.KCCA.Rank = sh.rank
			sl, err := core.NewSliding(sh.capacity, sh.every, opt)
			if err != nil {
				t.Fatal(err)
			}
			incBefore := incrementalRetrains()
			for i := 0; i < sh.observes; i++ {
				if err := sl.Observe(pool.Queries[i%len(pool.Queries)]); err != nil {
					t.Fatal(err)
				}
			}
			requireIncremental(t, incBefore)
			cur := sl.Current()
			test := pool.Queries[110:]
			reqs := requests(test)
			direct := cur.Predict(reqs...)

			m := WrapKCCA(cur)
			samePredictions(t, m.Predict(reqs...), direct)

			var buf bytes.Buffer
			if err := m.Save(&buf); err != nil {
				t.Fatal(err)
			}
			m2, err := Load(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			samePredictions(t, m2.Predict(reqs...), direct)
		})
	}
}

// testPlanFunc re-plans SQL exactly the way the serving layer does for WAL
// replay (plans are pure functions of SQL, schema, data seed, and planner
// config, so this reproduces the fixture's plans).
func testPlanFunc(t testing.TB) core.PlanFunc {
	t.Helper()
	schema := catalog.TPCDS(1)
	cfg := optimizer.DefaultConfig(exec.Research4().Processors)
	return func(sql string) (*dataset.Query, error) {
		ast, err := sqlparse.Parse(sql)
		if err != nil {
			return nil, err
		}
		plan, err := optimizer.BuildPlan(ast, schema, fixDataSeed, cfg)
		if err != nil {
			return nil, err
		}
		return &dataset.Query{SQL: sql, AST: ast, Plan: plan}, nil
	}
}

// TestKCCASnapshotRestoreEquivalence: a predictor restored from a durable
// snapshot serves bit-identical predictions to the one that wrote the
// snapshot, through the Model interface on both sides.
func TestKCCASnapshotRestoreEquivalence(t *testing.T) {
	for _, sh := range retrainShapes {
		t.Run(sh.name, func(t *testing.T) {
			pool := fixture(t)
			dir := t.TempDir()
			plan := testPlanFunc(t)
			opt := core.DefaultOptions()
			opt.KCCA.Rank = sh.rank
			st, err := wal.OpenStore(wal.StoreOptions{Dir: dir, Policy: wal.SyncNone, Plan: plan})
			if err != nil {
				t.Fatal(err)
			}
			sl, gen, err := st.Recover(sh.capacity, sh.every, opt)
			if err != nil {
				t.Fatal(err)
			}
			if gen != 0 {
				t.Fatalf("fresh store recovered generation %d", gen)
			}
			var liveGen int64
			incBefore := incrementalRetrains()
			for i := 0; i < sh.observes; i++ {
				src := pool.Queries[i%len(pool.Queries)]
				q, err := plan(src.SQL)
				if err != nil {
					t.Fatal(err)
				}
				q.Metrics = src.Metrics
				q.Category = workload.Categorize(q.Metrics.ElapsedSec)
				seq, err := st.Append(q.SQL, q.Metrics)
				if err != nil {
					t.Fatal(err)
				}
				before := sl.Retrains()
				if err := sl.Observe(q); err != nil {
					t.Fatal(err)
				}
				if sl.Retrains() != before {
					liveGen++
				}
				st.Applied(seq)
			}
			requireIncremental(t, incBefore)
			live := WrapKCCA(sl.Current())
			test := pool.Queries[110:]
			reqs := requests(test)
			want := live.Predict(reqs...)

			if err := st.Close(sl, liveGen); err != nil {
				t.Fatal(err)
			}

			st2, err := wal.OpenStore(wal.StoreOptions{Dir: dir, Policy: wal.SyncNone, Plan: plan})
			if err != nil {
				t.Fatal(err)
			}
			sl2, gen2, err := st2.Recover(sh.capacity, sh.every, opt)
			if err != nil {
				t.Fatal(err)
			}
			defer st2.Close(sl2, gen2)
			if gen2 != liveGen {
				t.Fatalf("recovered generation %d, want %d", gen2, liveGen)
			}
			restored := WrapKCCA(sl2.Current())
			samePredictions(t, restored.Predict(reqs...), want)
		})
	}
}
