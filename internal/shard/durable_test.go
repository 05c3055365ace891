package shard

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/wal"
)

// durableRouter builds a one-shard router whose shard logs to a store in
// dir. Nothing here recovers, so the store's replay planner is never called.
func durableRouter(t *testing.T, dir string, policy wal.SyncPolicy, snapshotEvery int) *Router {
	t.Helper()
	_, pred := fixture(t)
	st, err := wal.OpenStore(wal.StoreOptions{
		Dir:           dir,
		Policy:        policy,
		SnapshotEvery: snapshotEvery,
		Plan:          func(string) (*dataset.Query, error) { return nil, errors.New("no replay in this test") },
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter([]ShardConfig{{Boot: pred, Sliding: newSliding(t, 40, 40), Store: st}}, Passthrough{}, Config{}, false)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestObserveAdmittedBeforeLogged pins what an observe acknowledgement
// means: admission — what the handler's 202 reports — queues the batch and
// returns, and the observe loop appends each record to the WAL only after.
// With the loop parked before its first observation, a batch is admitted
// under -fsync always while wal.appends has not moved; a crash there loses
// an acknowledged observation under every fsync policy.
func TestObserveAdmittedBeforeLogged(t *testing.T) {
	pool, _ := fixture(t)
	r := durableRouter(t, t.TempDir(), wal.SyncAlways, 100)
	defer r.Close()
	arrived, release := make(chan struct{}), make(chan struct{})
	r.Shard(0).observeHook = parkAt(1, arrived, release)

	appends := obs.GetCounter("wal.appends")
	before := appends.Value()
	batch := pool.Queries[:3]
	if _, err := r.ObserveBatch(batch); err != nil {
		t.Fatal(err)
	}
	<-arrived
	if n := appends.Value() - before; n != 0 {
		t.Fatalf("wal.appends moved by %d before the observe loop applied anything", n)
	}
	close(release)
	// Each observation's WAL append comes before it counts as observed.
	for deadline := time.Now().Add(30 * time.Second); r.Shard(0).Observed() != int64(len(batch)); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d observations applied, want %d", r.Shard(0).Observed(), len(batch))
		}
	}
	if n := appends.Value() - before; n != int64(len(batch)) {
		t.Fatalf("wal.appends moved by %d once the loop applied %d observations", n, len(batch))
	}
}

// TestSnapshotErrorsCounted drives the failure path of a periodic snapshot
// through the observe loop. The store's directory is replaced by a regular
// file, so creating the snapshot's temp file fails (ENOTDIR — a chmod would
// not stop root); the open WAL segment, moved with its directory, still
// takes appends. Each failed attempt adds 1 to wal.snapshot.errors, the
// attempts keep the SnapshotEvery cadence, and no WAL segment is removed.
func TestSnapshotErrorsCounted(t *testing.T) {
	pool, _ := fixture(t)
	const every = 3
	dir := filepath.Join(t.TempDir(), "shard-0")
	r := durableRouter(t, dir, wal.SyncBatch, every)
	defer r.Close()
	// The hook parks the observe loop before each observation, once the one
	// before it is applied and its snapshot attempt, if due, is over.
	ready, proceed := make(chan struct{}), make(chan struct{})
	r.Shard(0).observeHook = func() {
		ready <- struct{}{}
		<-proceed
	}
	defer close(proceed)
	sent := 0
	// persisted lets the parked observation go, sends one more and returns
	// how many before it have been applied and persisted.
	persisted := func() int {
		t.Helper()
		if sent > 0 {
			proceed <- struct{}{}
		}
		if _, err := r.ObserveBatch([]*dataset.Query{pool.Queries[sent]}); err != nil {
			t.Fatal(err)
		}
		sent++
		<-ready
		return sent - 1
	}
	segments := func(dir string) []string {
		t.Helper()
		names, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
		if err != nil {
			t.Fatal(err)
		}
		for i, name := range names {
			names[i] = filepath.Base(name)
		}
		return names
	}

	snapshots := obs.GetCounter("wal.snapshots")
	taken := snapshots.Value()
	for persisted() < every {
	}
	if n := snapshots.Value() - taken; n != 1 {
		t.Fatalf("%d snapshots after %d observations, want 1", n, every)
	}
	kept := segments(dir)

	moved := dir + ".moved"
	if err := os.Rename(dir, moved); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	errs := obs.GetCounter("wal.snapshot.errors")
	base := errs.Value()
	for k := 1; k <= 3*every; k++ {
		if n := persisted(); n != every+k {
			t.Fatalf("%d observations persisted, want %d", n, every+k)
		}
		if got, want := errs.Value()-base, int64(k/every); got != want {
			t.Fatalf("after %d observations on the replaced directory: wal.snapshot.errors +%d, want +%d", k, got, want)
		}
	}
	if n := snapshots.Value() - taken; n != 1 {
		t.Errorf("%d snapshots written, want only the first", n)
	}
	if got := segments(moved); len(kept) == 0 || !slices.Equal(got, kept) {
		t.Errorf("WAL segments %v after the failed snapshots, want %v", got, kept)
	}
}
