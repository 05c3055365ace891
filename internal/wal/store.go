package wal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/workload"
)

// Store-level metrics.
var (
	walAppendErrors = obs.GetCounter("wal.append.errors")
	walRecoveries   = obs.GetCounter("wal.recoveries")
	walReplaySecs   = obs.GetHistogram("wal.replay.seconds")
)

// DefaultSnapshotEvery is the default observation count between snapshots.
const DefaultSnapshotEvery = 500

// ObservationRecord is the WAL payload of one /v1/observe entry: exactly
// what the wire carried — the SQL (re-planned deterministically on replay)
// and the measured metrics. JSON keeps records greppable; Go's float64
// encoding is shortest-round-trip, so metric bits survive exactly.
type ObservationRecord struct {
	SQL     string       `json:"sql"`
	Metrics exec.Metrics `json:"metrics"`
}

// StoreOptions configure one partition's durable state.
type StoreOptions struct {
	// Dir is the partition's state directory (WAL segments + snapshots);
	// created if missing.
	Dir string
	// Policy/SyncEvery/SegmentBytes configure the log (see Options).
	Policy       SyncPolicy
	SyncEvery    int
	SegmentBytes int64
	// SnapshotEvery is how many applied observations trigger a snapshot
	// (default DefaultSnapshotEvery). Snapshots bound replay time: a
	// restart replays only the records behind the newest snapshot.
	SnapshotEvery int
	// Plan re-plans a record's SQL during replay — the same deterministic
	// parse + optimize pipeline the live observe path runs.
	Plan core.PlanFunc
}

// RecoveryInfo describes what a Store's Recover did, for GET /v1/model and
// the boot log.
type RecoveryInfo struct {
	// Recovered is true when any prior state (snapshot or WAL records) was
	// found and installed.
	Recovered bool
	// SnapshotSeq is the WAL sequence the installed snapshot covered (0 if
	// recovery started from an empty state).
	SnapshotSeq uint64
	// Replayed is how many WAL records were re-applied behind the
	// snapshot.
	Replayed int64
	// TornTail is true when the log's tail had to be truncated (the crash
	// signature), with TruncatedBytes discarded.
	TornTail       bool
	TruncatedBytes int64
	// ReplaySeconds is how long recovery took.
	ReplaySeconds float64
	// Generation is the model generation serving after recovery (0 when
	// cold).
	Generation int64
}

// Store is one partition's durable serving state: an observation WAL plus
// periodic snapshots of the sliding predictor. The owner's observe
// goroutine serializes Append/Applied/MaybeSnapshot; Recover runs before
// serving starts; Info is immutable after Recover.
type Store struct {
	opts StoreOptions
	log  *Log

	appliedSeq uint64 // last WAL seq applied to the sliding predictor
	sinceSnap  int

	// encBuf is the reusable observation-record encode buffer. The observe
	// goroutine serializes every Append (see the Store contract above), so a
	// plain single-owner buffer suffices — steady-state appends allocate
	// nothing.
	encBuf []byte

	info RecoveryInfo
}

// OpenStore opens (and repairs) the partition's WAL. Call Recover next to
// rebuild the sliding predictor from the newest snapshot plus the log
// tail.
func OpenStore(opts StoreOptions) (*Store, error) {
	if opts.Plan == nil {
		return nil, fmt.Errorf("wal: store needs a plan function")
	}
	if opts.SnapshotEvery <= 0 {
		opts.SnapshotEvery = DefaultSnapshotEvery
	}
	l, err := Open(Options{
		Dir:          opts.Dir,
		SegmentBytes: opts.SegmentBytes,
		Policy:       opts.Policy,
		SyncEvery:    opts.SyncEvery,
	})
	if err != nil {
		return nil, err
	}
	return &Store{opts: opts, log: l}, nil
}

// Recover rebuilds the partition's sliding predictor: install the newest
// valid snapshot (falling back to older ones if corrupt), then replay the
// WAL tail through the ordinary Observe path — including its retrains —
// so the recovered state is bit-identical to a process that
// observed the same prefix without interruption. It returns the predictor
// and the model generation to seed the serving slot with (0 when cold).
//
// Replay cost scales with the tail behind the snapshot, not the log's
// history: whole covered segments are skipped without reading.
func (st *Store) Recover(capacity, retrainEvery int, opt core.Options) (*core.SlidingPredictor, int64, error) {
	start := time.Now()
	snap, err := LatestSnapshot(st.opts.Dir)
	if err != nil {
		return nil, 0, err
	}
	var sliding *core.SlidingPredictor
	var gen int64
	if snap != nil {
		sliding, err = core.RestoreSliding(bytes.NewReader(snap.Payload), capacity, retrainEvery, opt, st.opts.Plan)
		if err != nil {
			return nil, 0, fmt.Errorf("wal: restoring snapshot %s: %w", snap.Path, err)
		}
		gen = int64(snap.Gen)
		st.appliedSeq = snap.Seq
		st.info.SnapshotSeq = snap.Seq
		st.info.Recovered = true
	} else {
		sliding, err = core.NewSliding(capacity, retrainEvery, opt)
		if err != nil {
			return nil, 0, err
		}
	}

	// Replay the tail through the ordinary observe path. Every record was
	// accepted (parsed + planned) by a live daemon, so a replay plan
	// failure means the schema/planner configuration changed — refuse to
	// serve a model quietly diverged from its history. Retrain errors are
	// tolerated exactly as the live loop tolerates them: the observation is
	// retained, the previous model keeps serving.
	retrainsBefore := sliding.Retrains()
	err = st.log.Replay(st.appliedSeq+1, func(seq uint64, payload []byte) error {
		var rec ObservationRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return fmt.Errorf("wal: record %d: decoding observation: %w", seq, err)
		}
		q, err := st.opts.Plan(rec.SQL)
		if err != nil {
			return fmt.Errorf("wal: record %d: re-planning %d bytes of SQL %s: %w", seq, len(rec.SQL), quotePrefix(rec.SQL), err)
		}
		q.Metrics = rec.Metrics
		q.Category = workload.Categorize(q.Metrics.ElapsedSec)
		_ = sliding.Observe(q) // retrain errors: keep previous model, like the live loop
		st.appliedSeq = seq
		st.info.Replayed++
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	if st.info.Replayed > 0 {
		st.info.Recovered = true
	}
	// Generation continuity: the snapshot's generation plus one per retrain
	// completed during replay, matching the swaps the live loop would have
	// published. A cold boot (no snapshot, no model yet) stays at 0.
	gen += int64(sliding.Retrains() - retrainsBefore)
	if gen == 0 && sliding.Ready() {
		gen = 1
	}
	st.info.TornTail, st.info.TruncatedBytes = st.log.TornTail()
	st.info.ReplaySeconds = time.Since(start).Seconds()
	st.info.Generation = gen
	if st.info.Recovered {
		walRecoveries.Inc()
		walReplaySecs.Observe(st.info.ReplaySeconds)
	}
	st.sinceSnap = 0
	return sliding, gen, nil
}

// sqlQuoteBytes bounds how much of a statement a replay error quotes: a
// record may hold up to the daemon's MaxBody of SQL.
const sqlQuoteBytes = 128

// quotePrefix quotes sql with %q, or its first sqlQuoteBytes bytes and an
// ellipsis when it is longer.
func quotePrefix(sql string) string {
	if len(sql) <= sqlQuoteBytes {
		return fmt.Sprintf("%q", sql)
	}
	return fmt.Sprintf("%q…", sql[:sqlQuoteBytes])
}

// Info returns what recovery did. Immutable after Recover.
func (st *Store) Info() RecoveryInfo { return st.info }

// Append logs one observation ahead of applying it. Returns the record's
// sequence; on failure the caller still applies the observation
// (availability over durability — the error is counted and the record is
// simply absent from a future replay).
func (st *Store) Append(sql string, m exec.Metrics) (uint64, error) {
	// Hand-rolled append encoder, byte-identical to json.Marshal on the
	// ObservationRecord wire shape but reusing st.encBuf instead of
	// allocating per record.
	payload, err := appendObservation(st.encBuf[:0], sql, m)
	st.encBuf = payload
	if err != nil {
		walAppendErrors.Inc()
		return 0, fmt.Errorf("wal: encoding observation: %w", err)
	}
	seq, err := st.log.Append(payload)
	if err != nil {
		walAppendErrors.Inc()
		return 0, err
	}
	return seq, nil
}

// Applied marks a logged record as applied to the sliding predictor. The
// write-ahead discipline (log at seq k durable, apply k) means a crash
// between the two recovers to k applied — the WAL is the source of truth.
func (st *Store) Applied(seq uint64) {
	if seq == 0 {
		return
	}
	st.appliedSeq = seq
	st.sinceSnap++
}

// MaybeSnapshot takes a snapshot when enough observations have been
// applied since the last one.
func (st *Store) MaybeSnapshot(s *core.SlidingPredictor, gen int64) error {
	if st.sinceSnap < st.opts.SnapshotEvery {
		return nil
	}
	return st.Snapshot(s, gen)
}

// Snapshot persists the sliding predictor's full state (atomically), then
// truncates WAL segments the snapshot covers. A failed attempt counts toward
// the cadence like a successful one: the next attempt comes SnapshotEvery
// observations later, not on every observation (each attempt encodes the
// whole window and model), and the WAL keeps every record until a snapshot
// covering it is written.
func (st *Store) Snapshot(s *core.SlidingPredictor, gen int64) error {
	st.sinceSnap = 0
	var buf bytes.Buffer
	if err := s.SaveState(&buf); err != nil {
		return err
	}
	if _, err := WriteSnapshot(st.opts.Dir, st.appliedSeq, uint64(gen), buf.Bytes()); err != nil {
		return err
	}
	return st.log.TruncateBefore(st.appliedSeq + 1)
}

// Close takes a final snapshot (when a predictor is handed in and state
// has moved since the last one) and closes the log. Call after the observe
// loop has drained.
func (st *Store) Close(s *core.SlidingPredictor, gen int64) error {
	var err error
	if s != nil && st.sinceSnap > 0 {
		err = st.Snapshot(s, gen)
	}
	if cerr := st.log.Close(); err == nil {
		err = cerr
	}
	return err
}

// Manifest pins the fleet-level configuration a state directory was
// written under. Shard count and routing policy change which observations
// land in which partition's WAL, so restarting with different values would
// silently replay history into the wrong models; the manifest turns that
// into a boot-time error. Today's daemon records "none" for one shard and
// "hash" for more; a multi-shard directory an older daemon wrote under the
// "category" partitioner is refused. With one shard there is one partition
// and every routing policy fills it alike, so the partitioner then pins
// nothing: one-shard manifests match whatever theirs say ("hash" or
// "category" from an older daemon started with -shards 1).
type Manifest struct {
	Shards       int    `json:"shards"`
	Partitioner  string `json:"partitioner"`
	Capacity     int    `json:"capacity"`
	RetrainEvery int    `json:"retrain_every"`
}

// CheckManifest verifies dir's manifest against want, writing it (via
// WriteFileAtomic) when the directory is fresh.
func CheckManifest(dir string, want Manifest) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("wal: creating state dir %s: %w", dir, err)
	}
	path := filepath.Join(dir, "manifest.json")
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		out, merr := json.MarshalIndent(want, "", "  ")
		if merr != nil {
			return merr
		}
		return WriteFileAtomic(path, append(out, '\n'), 0o644)
	}
	if err != nil {
		return fmt.Errorf("wal: reading manifest %s: %w", path, err)
	}
	var have Manifest
	if err := json.Unmarshal(data, &have); err != nil {
		return fmt.Errorf("wal: decoding manifest %s: %w", path, err)
	}
	if have.Shards == 1 && want.Shards == 1 {
		have.Partitioner = want.Partitioner
	}
	if have != want {
		return fmt.Errorf("wal: state dir %s was written under %+v, daemon configured %+v — "+
			"use a fresh -state-dir or restore the original flags", dir, have, want)
	}
	return nil
}
