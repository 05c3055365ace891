// Package qpredict is the configuration surface of the qpredict binaries:
// one Options struct covering the trainer, predictor, serving, sharding and
// durable-state knobs, and the defaults the binaries' flags start from. A
// JSON file loaded with LoadFile (qpredictd -config / qpredict -config)
// populates it; explicitly set flags override individual fields
// afterwards. The package holds no global
// state — every call works on the Options value it is given.
package qpredict

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/wal"
)

// Duration is a time.Duration that marshals to and from JSON as a Go
// duration string ("2ms", "10s"). A bare JSON number is accepted as
// nanoseconds for compatibility with encoding/json's default encoding.
type Duration time.Duration

// Std returns the value as a time.Duration.
func (d Duration) Std() time.Duration { return time.Duration(d) }

func (d Duration) String() string { return time.Duration(d).String() }

// MarshalJSON encodes the duration as its Go string form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON decodes either a duration string or a nanosecond count.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var v any
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	switch x := v.(type) {
	case string:
		dd, err := time.ParseDuration(x)
		if err != nil {
			return fmt.Errorf("parsing duration %q: %w", x, err)
		}
		*d = Duration(dd)
	case float64:
		*d = Duration(time.Duration(x))
	default:
		return fmt.Errorf("duration must be a string like \"2ms\" or a nanosecond count, got %T", v)
	}
	return nil
}

// TrainOptions configures boot training (and the qpredict CLI's trainer).
type TrainOptions struct {
	// Count is the generated training workload size.
	Count int `json:"count"`
	// Seed is the workload seed; DataSeed the data realization seed.
	Seed     int64 `json:"seed"`
	DataSeed int64 `json:"dataseed"`
	// Machine names the modeled executor: "research4" or "prod32:<cpus>".
	Machine string `json:"machine"`
	// TwoStep enables query-type-specific (two-step) prediction.
	TwoStep bool `json:"twostep"`
	// Load, when set, loads a saved model instead of training.
	Load string `json:"load,omitempty"`
}

// ServeOptions configures the HTTP serving layer of qpredictd.
type ServeOptions struct {
	// Addr is the listen address (":0" for an ephemeral port).
	Addr string `json:"addr"`
	// Window is how long an idle engine holds its first arrival for more
	// to batch with. The stock 0 never holds: an idle engine dispatches at
	// once and a batch is whatever queued while the previous one ran.
	Window Duration `json:"window"`
	// MaxBatch caps a micro-batch; QueueCap bounds the pending queue (both
	// in queries).
	MaxBatch int `json:"max_batch"`
	QueueCap int `json:"queue"`
	// Timeout is the per-request prediction deadline.
	Timeout Duration `json:"timeout"`
	// DrainTimeout bounds graceful shutdown.
	DrainTimeout Duration `json:"drain_timeout"`
	// PlanCache sizes the SQL-keyed plan/feature cache shared by
	// the predict, observe, and WAL-replay paths (0 = the built-in
	// default, negative disables caching — every request re-plans).
	PlanCache int `json:"plan_cache,omitempty"`
}

// SlidingOptions configures the sliding retraining window.
type SlidingOptions struct {
	// Capacity is the window size; RetrainEvery the observations between
	// background retrains, at most Capacity. A daemon of N shards divides
	// both across them.
	Capacity     int `json:"capacity"`
	RetrainEvery int `json:"retrain_every"`
}

// ShardOptions configures how many shards the serving tier runs.
type ShardOptions struct {
	// Count is the shard count; 0 and 1 both run one shard, which
	// everything routes to. More shards route by consistent hashing of the
	// template fingerprint and split the sliding window between them; each
	// share must hold the training minimum of 5, so Count is at most
	// sliding.capacity/5.
	Count int `json:"count"`
}

// StateOptions configures durable serving state.
type StateOptions struct {
	// Dir is the state directory (empty = no durability).
	Dir string `json:"dir,omitempty"`
	// Fsync is the WAL sync policy: "always", "batch", or "none";
	// FsyncEvery the appends between syncs under "batch".
	Fsync      string `json:"fsync"`
	FsyncEvery int    `json:"fsync_every"`
	// SnapshotEvery is the applied observations between state snapshots.
	SnapshotEvery int `json:"snapshot_every"`
}

// Options is the full configuration of the qpredict binaries. Zero value
// is not useful; start from Default.
type Options struct {
	Train   TrainOptions   `json:"train"`
	Serve   ServeOptions   `json:"serve"`
	Sliding SlidingOptions `json:"sliding"`
	Shards  ShardOptions   `json:"shards"`
	State   StateOptions   `json:"state"`
}

// Default returns the options every binary starts from.
func Default() Options {
	return Options{
		Train: TrainOptions{Count: 800, Seed: 1, DataSeed: 1000, Machine: "research4"},
		Serve: ServeOptions{
			Addr:         ":8080",
			MaxBatch:     64,
			QueueCap:     1024,
			Timeout:      Duration(10 * time.Second),
			DrainTimeout: Duration(15 * time.Second),
		},
		Sliding: SlidingOptions{Capacity: 500, RetrainEvery: 100},
		State: StateOptions{
			Fsync:         "batch",
			FsyncEvery:    wal.DefaultSyncEvery,
			SnapshotEvery: wal.DefaultSnapshotEvery,
		},
	}
}

// LoadFile reads a JSON options file over the defaults. Unknown fields are
// rejected (a typoed knob must not silently fall back to its default), and
// the result is validated.
func LoadFile(path string) (Options, error) {
	opts := Default()
	f, err := os.Open(path)
	if err != nil {
		return opts, fmt.Errorf("opening config: %w", err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&opts); err != nil {
		return opts, fmt.Errorf("parsing config %s: %w", path, err)
	}
	if err := opts.Validate(); err != nil {
		return opts, fmt.Errorf("config %s: %w", path, err)
	}
	return opts, nil
}

// Validate checks cross-field invariants. It does not touch the
// filesystem or the network — path and address fields are validated by
// whatever opens them.
func (o *Options) Validate() error {
	if o.Train.Count <= 0 && o.Train.Load == "" {
		return fmt.Errorf("train.count must be positive (or set train.load)")
	}
	if o.Serve.MaxBatch <= 0 || o.Serve.QueueCap <= 0 {
		return fmt.Errorf("serve.max_batch and serve.queue must be positive")
	}
	if o.Serve.Timeout <= 0 || o.Serve.DrainTimeout <= 0 {
		return fmt.Errorf("serve.timeout and serve.drain_timeout must be positive")
	}
	if o.Serve.Window < 0 {
		return fmt.Errorf("serve.window must be non-negative")
	}
	if o.Sliding.Capacity < 5 {
		return fmt.Errorf("sliding.capacity %d is below the training minimum of 5", o.Sliding.Capacity)
	}
	if o.Sliding.RetrainEvery <= 0 {
		return fmt.Errorf("sliding.retrain_every must be positive")
	}
	if o.Sliding.RetrainEvery > o.Sliding.Capacity {
		// A window that slides past an observation before the retrain it was
		// waiting for never trains on it.
		return fmt.Errorf("sliding.retrain_every %d exceeds sliding.capacity %d", o.Sliding.RetrainEvery, o.Sliding.Capacity)
	}
	if o.Shards.Count < 0 {
		return fmt.Errorf("shards.count must be non-negative")
	}
	if o.Shards.Count > o.Sliding.Capacity/5 {
		// Each shard's window is capacity/count rows and must hold the
		// training minimum, or the shards together would keep more rows
		// than the window the daemon was given.
		return fmt.Errorf("shards.count %d exceeds sliding.capacity %d / 5: each shard's window must hold at least 5 rows",
			o.Shards.Count, o.Sliding.Capacity)
	}
	switch o.State.Fsync {
	case "always", "batch", "none":
	default:
		return fmt.Errorf("state.fsync %q is not always, batch, or none", o.State.Fsync)
	}
	if o.State.FsyncEvery <= 0 || o.State.SnapshotEvery <= 0 {
		return fmt.Errorf("state.fsync_every and state.snapshot_every must be positive")
	}
	return nil
}
