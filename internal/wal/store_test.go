package wal_test

import (
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/wal"
	"repro/internal/workload"
)

// Shared fixture: one generated pool (generation dominates test time). The
// data seed is fixed so the store's replay planner and the tests' local
// planner produce identical plans for the same SQL.
const storeDataSeed = 77

var (
	storeOnce sync.Once
	storePool *dataset.Dataset
	storeErr  error
)

func storeFixture(t testing.TB) *dataset.Dataset {
	t.Helper()
	storeOnce.Do(func() {
		storePool, storeErr = dataset.Generate(dataset.GenConfig{
			Seed: 5, DataSeed: storeDataSeed, Machine: exec.Research4(),
			Schema: catalog.TPCDS(1), Templates: workload.TPCDSTemplates(), Count: 160,
		})
	})
	if storeErr != nil {
		t.Fatal(storeErr)
	}
	return storePool
}

func storePlan() core.PlanFunc {
	return serve.PlannerFunc(catalog.TPCDS(1), storeDataSeed, exec.Research4())
}

// observations re-plans the first n pool queries (cycling through the pool
// when n exceeds it) exactly the way the /v1/observe handler does, attaching
// the measured metrics — the stream both the durable and the mirror
// predictor consume.
func observations(t testing.TB, n int) []*dataset.Query {
	t.Helper()
	pool := storeFixture(t)
	plan := storePlan()
	qs := make([]*dataset.Query, n)
	for i := 0; i < n; i++ {
		src := pool.Queries[i%len(pool.Queries)]
		q, err := plan(src.SQL)
		if err != nil {
			t.Fatalf("planning %q: %v", src.SQL, err)
		}
		q.Metrics = src.Metrics
		q.Category = workload.Categorize(q.Metrics.ElapsedSec)
		qs[i] = q
	}
	return qs
}

const (
	testCapacity = 40
	testRetrain  = 10
)

func openStore(t testing.TB, dir string, snapEvery int) *wal.Store {
	t.Helper()
	st, err := wal.OpenStore(wal.StoreOptions{
		Dir: dir, Policy: wal.SyncNone, SnapshotEvery: snapEvery, Plan: storePlan(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func newSliding(t testing.TB) *core.SlidingPredictor {
	t.Helper()
	s, err := core.NewSliding(testCapacity, testRetrain, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// feed applies one observation with the live observe loop's write-ahead
// discipline: log, apply, mark applied, snapshot when due. gen mirrors the
// serving slot's generation (one bump per completed retrain).
func feed(t testing.TB, st *wal.Store, s *core.SlidingPredictor, q *dataset.Query, gen *int64) {
	t.Helper()
	seq, err := st.Append(q.SQL, q.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	before := s.Retrains()
	_ = s.Observe(q) // retrain errors keep the previous model, like the live loop
	if s.Retrains() != before {
		*gen++
	}
	st.Applied(seq)
	if err := st.MaybeSnapshot(s, *gen); err != nil {
		t.Fatal(err)
	}
}

// checkIdentical asserts two sliding predictors are observably the same
// model: identical bookkeeping and bit-identical predictions on held-out
// queries — the recovery acceptance criterion.
func checkIdentical(t testing.TB, got, want *core.SlidingPredictor) {
	t.Helper()
	if got.Retrains() != want.Retrains() {
		t.Fatalf("retrains %d, want %d", got.Retrains(), want.Retrains())
	}
	if got.WindowSize() != want.WindowSize() {
		t.Fatalf("window %d, want %d", got.WindowSize(), want.WindowSize())
	}
	pg, pw := got.Current(), want.Current()
	if (pg == nil) != (pw == nil) {
		t.Fatalf("readiness diverged: recovered %v, mirror %v", pg != nil, pw != nil)
	}
	if pg == nil {
		return
	}
	pool := storeFixture(t)
	for _, q := range pool.Queries[150:160] {
		a, errA := pg.PredictQuery(q)
		b, errB := pw.PredictQuery(q)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("prediction errors diverged: %v vs %v", errA, errB)
		}
		if errA != nil {
			continue
		}
		if a.Metrics != b.Metrics || a.Confidence != b.Confidence || a.Category != b.Category {
			t.Fatalf("prediction diverged after recovery:\nrecovered %+v\nmirror    %+v", a, b)
		}
	}
}

// TestRecoverBitIdenticalAfterCrash is the end-to-end recovery contract: a
// process killed without any shutdown path (no final snapshot, no sync —
// SyncNone survives process death, just not power loss) recovers from its
// newest snapshot plus the WAL tail to the exact state of an uninterrupted
// mirror — and, crucially, continues to evolve identically, because each
// retrain is a function of the restored window alone. The "growing" shape
// crashes and recovers while the window still grows; the "sliding" one
// crashes with the window full and continues with retrains on a sliding
// window.
func TestRecoverBitIdenticalAfterCrash(t *testing.T) {
	for _, sh := range []struct {
		name            string
		capacity, every int
		snapEvery       int
		kill, total     int
		wantSnapshot    uint64
		full            bool
	}{
		// 27 observations (snapshots at 8, 16, 24; retrains at 10, 20), then
		// killed; observations 28..40 cross retrains at 30 and 40.
		{name: "growing", capacity: testCapacity, every: testRetrain, snapEvery: 8, kill: 27, total: 40, wantSnapshot: 24},
		// The 160-query pool cycles through a 400-slot ring (400 is not a
		// multiple of 160, so the window keeps changing). The window fills
		// at 400, the kill at 487 lands behind the snapshot at 480, and
		// observations 488..600 cross retrains at 500, 550 and 600.
		{name: "sliding", capacity: 400, every: 50, snapEvery: 160, kill: 487, total: 600, wantSnapshot: 480, full: true},
	} {
		t.Run(sh.name, func(t *testing.T) {
			opt := core.DefaultOptions()
			newSliding := func() *core.SlidingPredictor {
				s, err := core.NewSliding(sh.capacity, sh.every, opt)
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			qs := observations(t, sh.total)
			dir := t.TempDir()

			// Live process: killed — the store is simply abandoned mid-flight.
			st := openStore(t, dir, sh.snapEvery)
			live := newSliding()
			var liveGen int64
			for _, q := range qs[:sh.kill] {
				feed(t, st, live, q, &liveGen)
			}

			// Mirror: the same stream, never interrupted.
			mirror := newSliding()
			var mirrorGen int64
			observeMirror := func(q *dataset.Query) {
				before := mirror.Retrains()
				_ = mirror.Observe(q)
				if mirror.Retrains() != before {
					mirrorGen++
				}
			}
			for _, q := range qs[:sh.kill] {
				observeMirror(q)
			}

			// Restart: recover from disk.
			st2 := openStore(t, dir, sh.snapEvery)
			recovered, gen, err := st2.Recover(sh.capacity, sh.every, opt)
			if err != nil {
				t.Fatal(err)
			}
			checkIdentical(t, recovered, mirror)
			if gen != mirrorGen {
				t.Fatalf("recovered generation %d, mirror %d", gen, mirrorGen)
			}
			info := st2.Info()
			wantReplayed := int64(sh.kill) - int64(sh.wantSnapshot)
			if !info.Recovered || info.SnapshotSeq != sh.wantSnapshot || info.Replayed != wantReplayed {
				t.Fatalf("recovery info %+v, want snapshot %d + %d replayed", info, sh.wantSnapshot, wantReplayed)
			}
			if info.TornTail {
				t.Fatal("clean crash reported a torn tail")
			}

			// The recovered process keeps evolving bit-identically across
			// further retrain boundaries.
			if full := recovered.WindowSize() == sh.capacity; full != sh.full {
				t.Fatalf("recovered window full: %v, this shape is there to cover: %v", full, sh.full)
			}
			for _, q := range qs[sh.kill:] {
				feed(t, st2, recovered, q, &gen)
				observeMirror(q)
			}
			checkIdentical(t, recovered, mirror)
			if gen != mirrorGen {
				t.Fatalf("post-recovery generation %d, mirror %d", gen, mirrorGen)
			}
		})
	}
}

// TestRecoverMidObserve kills between the WAL append and the in-memory
// apply — the write-ahead discipline's defining crash point. The logged
// record must be replayed on restart: recovery equals a process that
// observed it. The 10th observation is also a retrain trigger, so this
// doubles as the mid-retrain kill point: the retrain that never completed
// in the crashed process runs during replay instead.
func TestRecoverMidObserve(t *testing.T) {
	qs := observations(t, 10)
	dir := t.TempDir()

	st := openStore(t, dir, 100)
	live := newSliding(t)
	var liveGen int64
	for _, q := range qs[:9] {
		feed(t, st, live, q, &liveGen)
	}
	// Observation 10: logged, never applied — killed mid-observe, just
	// before the retrain it would have triggered.
	if _, err := st.Append(qs[9].SQL, qs[9].Metrics); err != nil {
		t.Fatal(err)
	}

	mirror := newSliding(t)
	for _, q := range qs {
		_ = mirror.Observe(q)
	}

	st2 := openStore(t, dir, 100)
	recovered, gen, err := st2.Recover(testCapacity, testRetrain, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	checkIdentical(t, recovered, mirror)
	if info := st2.Info(); info.Replayed != 10 {
		t.Fatalf("replayed %d, want all 10 (WAL is the source of truth)", info.Replayed)
	}
	if gen != 1 {
		t.Fatalf("generation %d, want 1 (the replayed retrain)", gen)
	}
}

// TestRecoverTornTail kills mid-append: the last WAL record is half
// written. Recovery truncates the torn record and lands on the state of a
// process that never received that observation.
func TestRecoverTornTail(t *testing.T) {
	qs := observations(t, 15)
	dir := t.TempDir()

	st := openStore(t, dir, 100)
	live := newSliding(t)
	var liveGen int64
	for _, q := range qs {
		feed(t, st, live, q, &liveGen)
	}
	// Tear the tail: chop a few bytes off the last record's frame.
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments (%v)", err)
	}
	last := segs[len(segs)-1]
	info, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, info.Size()-5); err != nil {
		t.Fatal(err)
	}

	mirror := newSliding(t)
	for _, q := range qs[:14] {
		_ = mirror.Observe(q)
	}

	truncations, truncated := obs.GetCounter("wal.tail.truncations"), obs.GetCounter("wal.truncated.bytes")
	truncationsBefore, truncatedBefore := truncations.Value(), truncated.Value()
	st2 := openStore(t, dir, 100)
	recovered, _, err := st2.Recover(testCapacity, testRetrain, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	checkIdentical(t, recovered, mirror)
	ri := st2.Info()
	if !ri.TornTail || ri.TruncatedBytes == 0 {
		t.Fatalf("torn tail not reported: %+v", ri)
	}
	repaired, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	cut := info.Size() - 5 - repaired.Size()
	if n := truncations.Value() - truncationsBefore; n != 1 {
		t.Errorf("wal.tail.truncations moved by %d, want 1", n)
	}
	if n := truncated.Value() - truncatedBefore; n != cut || ri.TruncatedBytes != cut {
		t.Errorf("wal.truncated.bytes moved by %d and recovery reports %d, the repair cut %d bytes", n, ri.TruncatedBytes, cut)
	}
	if ri.Replayed != 14 {
		t.Fatalf("replayed %d, want 14 (the valid prefix)", ri.Replayed)
	}
}

// TestRecoverCorruptSnapshotFallback kills mid-snapshot in effect: the
// newest snapshot is unreadable (WriteFileAtomic means a real crash leaves
// the old file, but disks rot and bytes flip). Recovery falls back to the
// previous snapshot and replays a longer tail — to the same state.
func TestRecoverCorruptSnapshotFallback(t *testing.T) {
	qs := observations(t, 30)
	dir := t.TempDir()

	st := openStore(t, dir, 8)
	live := newSliding(t)
	var liveGen int64
	for _, q := range qs {
		feed(t, st, live, q, &liveGen)
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if err != nil || len(snaps) < 2 {
		t.Fatalf("want >= 2 snapshots, got %v (%v)", snaps, err)
	}
	newest := snaps[len(snaps)-1]
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x01
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}

	mirror := newSliding(t)
	for _, q := range qs {
		_ = mirror.Observe(q)
	}

	corrupt := obs.GetCounter("wal.snapshots.corrupt")
	before := corrupt.Value()
	st2 := openStore(t, dir, 8)
	recovered, _, err := st2.Recover(testCapacity, testRetrain, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	checkIdentical(t, recovered, mirror)
	ri := st2.Info()
	if ri.SnapshotSeq != 16 || ri.Replayed != 14 {
		t.Fatalf("recovery info %+v, want fallback snapshot 16 + 14 replayed", ri)
	}
	if n := corrupt.Value() - before; n != 1 {
		t.Errorf("wal.snapshots.corrupt moved by %d, want 1 (the flipped newest snapshot)", n)
	}
}

// TestCleanShutdownSnapshot: Close takes a final snapshot, so a clean
// restart replays nothing and keeps the generation moving forward.
func TestCleanShutdownSnapshot(t *testing.T) {
	qs := observations(t, 13)
	dir := t.TempDir()

	st := openStore(t, dir, 100)
	live := newSliding(t)
	var liveGen int64
	for _, q := range qs {
		feed(t, st, live, q, &liveGen)
	}
	if err := st.Close(live, liveGen); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir, 100)
	recovered, gen, err := st2.Recover(testCapacity, testRetrain, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	checkIdentical(t, recovered, live)
	if gen != liveGen {
		t.Fatalf("generation %d, want %d", gen, liveGen)
	}
	ri := st2.Info()
	if !ri.Recovered || ri.Replayed != 0 || ri.SnapshotSeq != 13 {
		t.Fatalf("clean restart replayed the tail anyway: %+v", ri)
	}
}

// TestKCCASnapshotRestoreEquivalence: a window that filled and slid,
// closed cleanly and recovered from its final snapshot, serves
// bit-identical predictions at the same generation — under the automatic
// kernel-PCA rank and under a fixed one.
func TestKCCASnapshotRestoreEquivalence(t *testing.T) {
	for _, sh := range []struct {
		name                  string
		capacity, every, rank int
		observes              int
	}{
		// The window fills at 60 and slides through nine more retrains.
		{name: "auto-rank", capacity: 60, every: 10, observes: 150},
		// The 160-query pool cycles through a 400-slot ring, so the window
		// keeps changing after it fills at 400.
		{name: "fixed-rank", capacity: 400, every: 50, rank: 2, observes: 470},
	} {
		t.Run(sh.name, func(t *testing.T) {
			opt := core.DefaultOptions()
			opt.KCCA.Rank = sh.rank
			dir := t.TempDir()
			st := openStore(t, dir, 1000)
			live, gen, err := st.Recover(sh.capacity, sh.every, opt)
			if err != nil {
				t.Fatal(err)
			}
			if gen != 0 {
				t.Fatalf("fresh store recovered generation %d", gen)
			}
			for _, q := range observations(t, sh.observes) {
				feed(t, st, live, q, &gen)
			}
			if live.WindowSize() != sh.capacity {
				t.Fatalf("the window holds %d of %d rows; it never slid", live.WindowSize(), sh.capacity)
			}
			if err := st.Close(live, gen); err != nil {
				t.Fatal(err)
			}

			st2 := openStore(t, dir, 1000)
			recovered, gen2, err := st2.Recover(sh.capacity, sh.every, opt)
			if err != nil {
				t.Fatal(err)
			}
			defer st2.Close(recovered, gen2)
			if gen2 != gen {
				t.Fatalf("recovered generation %d, want %d", gen2, gen)
			}
			if ri := st2.Info(); ri.Replayed != 0 || ri.SnapshotSeq != uint64(sh.observes) {
				t.Fatalf("recovery %+v, want the final snapshot at %d and nothing replayed", ri, sh.observes)
			}
			checkIdentical(t, recovered, live)
		})
	}
}

// TestFailedSnapshotCountsTowardCadence: once snapshots start failing (the
// state directory is gone; the open WAL segment stays writable), the store
// retries one per SnapshotEvery observations rather than on every one.
func TestFailedSnapshotCountsTowardCadence(t *testing.T) {
	const every = 5
	qs := observations(t, every+20)
	dir := t.TempDir()
	st := openStore(t, dir, every)
	live := newSliding(t)
	var gen int64
	for _, q := range qs[:every] {
		feed(t, st, live, q, &gen)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	failed := 0
	for _, q := range qs[every:] {
		seq, err := st.Append(q.SQL, q.Metrics)
		if err != nil {
			t.Fatal(err)
		}
		_ = live.Observe(q)
		st.Applied(seq)
		if st.MaybeSnapshot(live, gen) != nil {
			failed++
		}
	}
	if failed != 20/every {
		t.Fatalf("%d failed snapshot attempts over 20 observations, want %d", failed, 20/every)
	}
}

// TestReplayErrorQuotesBoundedPrefix: a record that no longer plans fails
// recovery with an error that names the record and its statement's length
// and quotes a bounded prefix of the statement — a record may hold up to the
// daemon's MaxBody (4 MiB) of SQL, and the error reaches the boot log whole.
func TestReplayErrorQuotesBoundedPrefix(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, 100)
	qs := observations(t, 1)
	if _, err := st.Append(qs[0].SQL, qs[0].Metrics); err != nil {
		t.Fatal(err)
	}
	huge := qs[0].SQL + " AND " + strings.Repeat("x", 1<<20)
	if _, err := st.Append(huge, qs[0].Metrics); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(nil, 0); err != nil {
		t.Fatal(err)
	}

	refused := errors.New("statement refused")
	plan := storePlan()
	st2, err := wal.OpenStore(wal.StoreOptions{Dir: dir, Policy: wal.SyncNone, Plan: func(sql string) (*dataset.Query, error) {
		if len(sql) > 1<<20 {
			return nil, refused
		}
		return plan(sql)
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close(nil, 0)
	_, _, err = st2.Recover(testCapacity, testRetrain, core.DefaultOptions())
	if !errors.Is(err, refused) {
		t.Fatalf("recovery error %v, want the plan function's", err)
	}
	msg := err.Error()
	t.Logf("%d bytes: %s", len(msg), msg)
	if len(msg) >= 1<<10 || !strings.Contains(msg, "record 2:") || !strings.Contains(msg, strconv.Itoa(len(huge))+" bytes") ||
		!strings.Contains(msg, `"`+huge[:40]) {
		t.Fatalf("recovery error (%d bytes) does not name record 2 and its %d bytes under 1 KiB: %.300s", len(msg), len(huge), msg)
	}
}

// TestRecoverConfigMismatch: a snapshot taken under one window
// configuration must refuse to restore under another.
func TestRecoverConfigMismatch(t *testing.T) {
	qs := observations(t, 13)
	dir := t.TempDir()
	st := openStore(t, dir, 100)
	live := newSliding(t)
	var gen int64
	for _, q := range qs {
		feed(t, st, live, q, &gen)
	}
	if err := st.Close(live, gen); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir, 100)
	_, _, err := st2.Recover(testCapacity+10, testRetrain, core.DefaultOptions())
	if !errors.Is(err, core.ErrStateMismatch) {
		t.Fatalf("capacity mismatch: %v", err)
	}
}

func TestCheckManifest(t *testing.T) {
	dir := t.TempDir()
	want := wal.Manifest{Shards: 4, Partitioner: "hash", Capacity: 500, RetrainEvery: 100}
	if err := wal.CheckManifest(dir, want); err != nil {
		t.Fatalf("fresh dir: %v", err)
	}
	if err := wal.CheckManifest(dir, want); err != nil {
		t.Fatalf("same config: %v", err)
	}
	bad := want
	bad.Shards = 8
	if err := wal.CheckManifest(dir, bad); err == nil {
		t.Fatal("shard-count change accepted against an existing state dir")
	}
}

// TestCheckManifestOneShard: one shard is one partition (shard-0/) whatever
// routes to it, so a one-shard directory opens under every partitioner name
// a daemon has written for it — and is still refused a change of anything
// that does decide what is on disk.
func TestCheckManifestOneShard(t *testing.T) {
	names := []string{"none", "hash", "category"}
	for _, wrote := range names {
		dir := t.TempDir()
		if err := wal.CheckManifest(dir, wal.Manifest{Shards: 1, Partitioner: wrote, Capacity: 500, RetrainEvery: 100}); err != nil {
			t.Fatalf("fresh dir under %q: %v", wrote, err)
		}
		for _, opens := range names {
			if err := wal.CheckManifest(dir, wal.Manifest{Shards: 1, Partitioner: opens, Capacity: 500, RetrainEvery: 100}); err != nil {
				t.Errorf("one shard written under %q, opened under %q: %v", wrote, opens, err)
			}
		}
		for what, bad := range map[string]wal.Manifest{
			"shard count":      {Shards: 2, Partitioner: wrote, Capacity: 500, RetrainEvery: 100},
			"capacity":         {Shards: 1, Partitioner: wrote, Capacity: 400, RetrainEvery: 100},
			"retrain interval": {Shards: 1, Partitioner: wrote, Capacity: 500, RetrainEvery: 50},
		} {
			if err := wal.CheckManifest(dir, bad); err == nil {
				t.Errorf("one shard written under %q: a changed %s was accepted", wrote, what)
			}
		}
	}
	// At more than one shard the partitioner decides which WAL an observation
	// is in.
	dir := t.TempDir()
	if err := wal.CheckManifest(dir, wal.Manifest{Shards: 2, Partitioner: "hash", Capacity: 500, RetrainEvery: 100}); err != nil {
		t.Fatal(err)
	}
	if err := wal.CheckManifest(dir, wal.Manifest{Shards: 2, Partitioner: "category", Capacity: 500, RetrainEvery: 100}); err == nil {
		t.Error("a partitioner change at two shards was accepted")
	}
}
