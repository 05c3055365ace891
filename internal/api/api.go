// Package api defines the JSON wire types of the prediction service — the
// one stable schema shared by the qpredictd daemon and the qpredict -json
// CLI output, so scripted consumers see a single format no matter which
// binary produced it.
//
// Versioning rules (documented for consumers in docs/API.md):
//
//   - Every response carries a "version" field, currently Version.
//   - Within a version, fields are only ever added, never renamed, removed,
//     or retyped; consumers must ignore unknown fields.
//   - Metric names in the Metrics object are exactly the six names of
//     exec.MetricNames and will not change within a version.
//   - A breaking change bumps the version string and the /v<N>/ URL prefix.
package api

import "repro/internal/exec"

// Version identifies the wire schema carried in every response.
const Version = "v1"

// PredictRequest is the body of POST /v1/predict. The single-query
// shorthand {"sql": "..."} and the batch form {"queries": [{"sql": ...}]}
// may be combined; the shorthand query is predicted first.
type PredictRequest struct {
	SQL     string       `json:"sql,omitempty"`
	Queries []QueryInput `json:"queries,omitempty"`
}

// QueryInput is one query to predict.
type QueryInput struct {
	SQL string `json:"sql"`
}

// Inputs normalizes the request into a flat query list: the single-query
// shorthand (if present) followed by the batch entries. Batch-only requests
// (the steady-state load-generator shape) return Queries as-is without
// copying; callers must not mutate the result.
func (r *PredictRequest) Inputs() []QueryInput {
	if r.SQL == "" {
		return r.Queries
	}
	in := make([]QueryInput, 0, 1+len(r.Queries))
	in = append(in, QueryInput{SQL: r.SQL})
	return append(in, r.Queries...)
}

// Metrics is the six-metric prediction (or observation) vector. The JSON
// names match exec.MetricNames, the paper's Sec. VI-D ordering.
type Metrics struct {
	ElapsedSec      float64 `json:"elapsed_time"`
	RecordsAccessed float64 `json:"records_accessed"`
	RecordsUsed     float64 `json:"records_used"`
	DiskIOs         float64 `json:"disk_ios"`
	MessageCount    float64 `json:"message_count"`
	MessageBytes    float64 `json:"message_bytes"`
}

// MetricsFrom converts the simulator's metrics struct to the wire form.
func MetricsFrom(m exec.Metrics) Metrics {
	return Metrics{
		ElapsedSec:      m.ElapsedSec,
		RecordsAccessed: m.RecordsAccessed,
		RecordsUsed:     m.RecordsUsed,
		DiskIOs:         m.DiskIOs,
		MessageCount:    m.MessageCount,
		MessageBytes:    m.MessageBytes,
	}
}

// Exec converts the wire metrics back to the simulator's struct.
func (m Metrics) Exec() exec.Metrics {
	return exec.Metrics{
		ElapsedSec:      m.ElapsedSec,
		RecordsAccessed: m.RecordsAccessed,
		RecordsUsed:     m.RecordsUsed,
		DiskIOs:         m.DiskIOs,
		MessageCount:    m.MessageCount,
		MessageBytes:    m.MessageBytes,
	}
}

// QueryResult is the prediction for one input query. Either Metrics or
// Error is set, never both: a malformed query in a batch fails alone
// without voiding its neighbors.
type QueryResult struct {
	// SQL echoes the input query.
	SQL string `json:"sql,omitempty"`
	// Metrics are the six predicted performance metrics.
	Metrics *Metrics `json:"metrics,omitempty"`
	// Category is the predicted runtime class (feather / golf ball /
	// bowling ball / wrecking ball).
	Category string `json:"category,omitempty"`
	// Confidence in (0, 1]: low values flag queries far from everything
	// the model has seen.
	Confidence float64 `json:"confidence,omitempty"`
	// OptimizerCost is the optimizer's scalar cost estimate for the same
	// plan, in internal optimizer units — the classical baseline, exposed
	// side by side so callers can compare it against the learned
	// prediction.
	OptimizerCost float64 `json:"optimizer_cost,omitempty"`
	// Generation is the model generation that produced this result (it can
	// differ between results of one batch when a hot swap lands mid-batch).
	// On a sharded daemon, generations are per shard.
	Generation int64 `json:"generation,omitempty"`
	// Shard is the owning shard of this query per the partitioner, present
	// only when the daemon runs more than one shard (one shard partitions
	// nothing, and its wire format predates the field). It names the shard
	// that owns the query even when a cold-start fallback served it; the
	// serving shard is then reported in FallbackShard.
	Shard string `json:"shard,omitempty"`
	// FallbackShard is set when the owning shard was cold and a warm shard
	// answered instead (cold-start fallback).
	FallbackShard string `json:"fallback_shard,omitempty"`
	// ModelKind names the model family that produced this result: always
	// "kcca", the paper's KCCA + kNN pipeline.
	ModelKind string `json:"model_kind,omitempty"`
	// Error is set instead of Metrics when this query failed.
	Error *Error `json:"error,omitempty"`
}

// PredictResponse is the body of a successful POST /v1/predict.
type PredictResponse struct {
	Version string        `json:"version"`
	Model   *ModelInfo    `json:"model,omitempty"`
	Results []QueryResult `json:"results"`
}

// ModelInfo describes the currently served model (GET /v1/model and the
// model field of predict responses).
type ModelInfo struct {
	// Generation counts hot swaps: 1 is the boot model, each background
	// retrain that is swapped in increments it.
	Generation int64 `json:"generation"`
	// TrainedOn is the number of training queries behind the model.
	TrainedOn int `json:"trained_on"`
	// Features names the query-side feature vector (query-plan or
	// sql-text).
	Features string `json:"features"`
	// TwoStep reports whether type-specific two-step prediction is on.
	TwoStep bool `json:"two_step"`
	// Swaps is the number of completed hot swaps since boot.
	Swaps int64 `json:"swaps"`
	// WindowSize is the sliding window's current occupancy (0 when the
	// daemon runs a static model with no observation feedback). On a
	// multi-shard daemon it is the total across shards.
	WindowSize int `json:"window_size,omitempty"`
	// Shards is the shard count, present only on a daemon running more than
	// one shard. There, Generation is the highest per-shard generation,
	// TrainedOn and Swaps are totals, and GET /v1/shards has the per-shard
	// breakdown.
	Shards int `json:"shards,omitempty"`
	// Partitioner names the routing policy, present only on a multi-shard
	// daemon, which routes by "hash".
	Partitioner string `json:"partitioner,omitempty"`
	// ModelKind names the served model family: always "kcca".
	ModelKind string `json:"model_kind,omitempty"`
	// Index describes the neighbor-search index of the served generation.
	Index *IndexInfo `json:"index,omitempty"`
	// Recovery reports how the serving state was rebuilt at boot. Present
	// only on a daemon running with -state-dir (absent fields keep the
	// no-durability wire format byte-identical to older daemons). On a
	// multi-shard daemon it aggregates across shards; GET /v1/shards has
	// the per-shard breakdown.
	Recovery *RecoveryInfo `json:"recovery,omitempty"`
}

// RecoveryInfo describes a warm start from durable state: whether prior
// state was found, how much of the observation WAL was replayed behind the
// installed snapshot, and whether the log's tail had to be repaired (the
// crash signature).
type RecoveryInfo struct {
	// Recovered is true when a snapshot or WAL records were found and
	// installed; false means the state directory was fresh (cold boot).
	Recovered bool `json:"recovered"`
	// SnapshotSeq is the WAL sequence the installed snapshot covered.
	SnapshotSeq uint64 `json:"snapshot_seq,omitempty"`
	// Replayed is how many WAL records were re-applied behind the snapshot.
	Replayed int64 `json:"replayed,omitempty"`
	// TornTail reports whether recovery truncated a torn or corrupt log
	// tail, discarding TruncatedBytes.
	TornTail       bool  `json:"torn_tail,omitempty"`
	TruncatedBytes int64 `json:"truncated_bytes,omitempty"`
	// ReplaySeconds is how long recovery took.
	ReplaySeconds float64 `json:"replay_seconds,omitempty"`
}

// IndexInfo describes the k-nearest-neighbor index serving predictions for
// the current model generation. The index is an exact scan — predictions
// are bit-identical to knn.Nearest — so this is purely a performance
// surface. It is rebuilt with every generation and immutable in between.
// Predict and observe responses carry only its static per-generation shape;
// GET /v1/model adds what it has done since the generation was installed
// (Searches and the two means; process-wide counters are on /metrics under
// knn.index.*). On a multi-shard daemon the counts are totals across shards
// and the means are over all shards' searches.
type IndexInfo struct {
	// Kind is always "flat", the exact linear scan. Daemons that served from
	// a KD-tree said "kdtree"; clients must accept either.
	Kind string `json:"kind"`
	// Metric is the distance metric the index is built for ("euclidean" or
	// "cosine").
	Metric string `json:"metric"`
	// Points is the number of indexed training points.
	Points int `json:"points"`
	// Nodes, Stragglers and MinPoints described the KD-tree older daemons
	// served from (its node count, the points it kept out, the window size
	// below which it fell back to the scan). They are kept so older clients
	// decode: Nodes and MinPoints are now always 0, and Stragglers is 0 and
	// so omitted.
	Nodes      int `json:"nodes"`
	Stragglers int `json:"stragglers,omitempty"`
	MinPoints  int `json:"min_points"`
	// Searches counts the searches this generation has served. Each offers
	// every point for distance scoring, so MeanScored equals Points;
	// MeanAbandoned of them were dropped part-way through their distance
	// sums because they could no longer enter the result. Only on GET
	// /v1/model, and only once Searches > 0.
	Searches      int64   `json:"searches,omitempty"`
	MeanScored    float64 `json:"mean_scored,omitempty"`
	MeanAbandoned float64 `json:"mean_abandoned,omitempty"`
}

// ObserveRequest is the body of POST /v1/observe: executed queries with
// their measured metrics, feeding the sliding retraining window.
type ObserveRequest struct {
	Observations []Observation `json:"observations"`
}

// Observation is one executed query and what it actually cost.
type Observation struct {
	SQL     string  `json:"sql"`
	Metrics Metrics `json:"metrics"`
}

// ObserveResponse is the body of a successful POST /v1/observe. Accepted
// observations are queued; retraining happens in the background, so the
// generation visible here may trail the swap the observations trigger.
type ObserveResponse struct {
	Version    string `json:"version"`
	Accepted   int    `json:"accepted"`
	WindowSize int    `json:"window_size"`
	Generation int64  `json:"generation"`
	// Shard is set when the daemon runs more than one shard and every
	// observation of this request routed to the same shard; WindowSize is
	// then that shard's window. Requests spanning shards leave it empty and
	// report the total window.
	Shard string `json:"shard,omitempty"`
}

// ShardInfo describes one shard of a sharded daemon (GET /v1/shards).
type ShardInfo struct {
	// ID is the shard index; results carry it in their "shard" field.
	ID int `json:"id"`
	// Ready reports whether the shard serves a model.
	Ready bool `json:"ready"`
	// Generation counts the shard's served models (1 = its boot model).
	Generation int64 `json:"generation"`
	// Swaps is the shard's completed hot swaps since boot.
	Swaps int64 `json:"swaps"`
	// TrainedOn is the number of training queries behind the shard's model.
	TrainedOn int `json:"trained_on"`
	// WindowSize is the shard's sliding-window occupancy.
	WindowSize int `json:"window_size"`
	// Predictions counts predictions this shard has served.
	Predictions int64 `json:"predictions"`
	// Observations counts observations this shard has applied.
	Observations int64 `json:"observations"`
	// Recovery reports how this shard's state was rebuilt at boot, present
	// only with -state-dir.
	Recovery *RecoveryInfo `json:"recovery,omitempty"`
	// ModelKind names the shard's served model family: always "kcca".
	ModelKind string `json:"model_kind,omitempty"`
}

// ShardsResponse is the body of GET /v1/shards: the routing policy
// ("passthrough" on a one-shard daemon, "hash" on more) and the per-shard
// model state. Every daemon serves it.
type ShardsResponse struct {
	Version     string      `json:"version"`
	Partitioner string      `json:"partitioner"`
	Shards      []ShardInfo `json:"shards"`
}

// Error is a machine-readable failure: Code is stable and branchable,
// Message is human diagnostics and may change freely.
type Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Version string `json:"version"`
	Error   Error  `json:"error"`
}

// Stable error codes. HTTP status codes give the coarse class; these give
// the branchable cause.
const (
	// CodeBadRequest: the body was not valid JSON for the endpoint, or was
	// structurally empty (HTTP 400).
	CodeBadRequest = "bad_request"
	// CodeParse: the SQL text did not parse (HTTP 400).
	CodeParse = "parse_error"
	// CodePlan: the query parsed but could not be planned against the
	// schema (HTTP 400).
	CodePlan = "plan_error"
	// CodeDimension: a feature vector did not match the model (HTTP 400).
	CodeDimension = "dimension_mismatch"
	// CodeNotTrained: no model is available yet; retry after the first
	// training completes (HTTP 503).
	CodeNotTrained = "model_not_trained"
	// CodeOverloaded: the request queue is full; back off and retry
	// (HTTP 429).
	CodeOverloaded = "overloaded"
	// CodeTimeout: the per-request deadline elapsed before the prediction
	// was served (HTTP 504).
	CodeTimeout = "timeout"
	// CodeShuttingDown: the daemon is draining and accepts no new work
	// (HTTP 503).
	CodeShuttingDown = "shutting_down"
	// CodeMethod: wrong HTTP method for the endpoint (HTTP 405).
	CodeMethod = "method_not_allowed"
	// CodeInternal: an unexpected server-side failure (HTTP 500).
	CodeInternal = "internal"
)
