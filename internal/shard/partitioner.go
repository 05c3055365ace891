package shard

import (
	"fmt"
	"hash/fnv"
	"sort"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/workload"
)

// Partitioner maps queries to shard indexes. Predict and observe routing
// are separate methods because they see different information: a predict
// request is pre-execution (plan only), while an observation carries
// measured metrics and a real category. A partitioner that uses only
// pre-execution information (the hash partitioner) routes both identically;
// the category partitioner routes observations by their measured class and
// predicts by a pre-execution estimate of it.
//
// Implementations must be deterministic and safe for concurrent use: the
// router calls them from every request goroutine.
type Partitioner interface {
	// Name identifies the partitioner on /v1/shards and in logs.
	Name() string
	// RoutePredict returns the owning shard index for a planned,
	// not-yet-executed query.
	RoutePredict(q *dataset.Query) (int, error)
	// RouteObserve returns the owning shard index for an executed query
	// (Metrics and Category populated).
	RouteObserve(q *dataset.Query) (int, error)
}

// NewPartitioner constructs a partitioner by name: "hash" (consistent
// hashing of the template fingerprint) or "category" (workload-category
// routing).
func NewPartitioner(name string, shards int, kind core.FeatureKind) (Partitioner, error) {
	switch name {
	case "hash", "":
		return NewHashPartitioner(shards, kind), nil
	case "category":
		return NewCategoryPartitioner(shards), nil
	default:
		return nil, fmt.Errorf("shard: unknown partitioner %q (want hash or category)", name)
	}
}

// ringReplicas is the number of virtual nodes per shard on the consistent
// hash ring. 64 points per shard keeps the assignment imbalance of a
// uniform key set within a few percent while the ring stays tiny.
const ringReplicas = 64

type ringPoint struct {
	hash  uint64
	shard int
}

// HashPartitioner routes by consistent hashing of the template fingerprint
// — the same core.Fingerprint the prediction cache keys cached predictions
// by, computed over the query's feature vector. Two properties follow:
//
//   - a recurring template always lands on the same shard, so that shard's
//     window (and therefore its model and its prediction cache) specializes
//     on the templates it owns;
//   - the mapping is consistent: changing the shard count moves only the
//     keys whose ring arc changed ownership, not a full reshuffle — the
//     property that makes resizing a warm fleet cheap.
//
// Predict and observe routing are identical (both use only pre-execution
// features), so a shard always trains on exactly the traffic it serves.
type HashPartitioner struct {
	kind core.FeatureKind
	ring []ringPoint
	n    int
}

// NewHashPartitioner builds the ring for n shards, fingerprinting feature
// vectors of the given kind. The ring is deterministic: the same (n, kind)
// always yields the same assignment, across processes and hosts.
func NewHashPartitioner(n int, kind core.FeatureKind) *HashPartitioner {
	if n < 1 {
		n = 1
	}
	ring := make([]ringPoint, 0, n*ringReplicas)
	for s := 0; s < n; s++ {
		for r := 0; r < ringReplicas; r++ {
			h := fnv.New64a()
			fmt.Fprintf(h, "shard-%d-replica-%d", s, r)
			ring = append(ring, ringPoint{hash: h.Sum64(), shard: s})
		}
	}
	sort.Slice(ring, func(i, j int) bool { return ring[i].hash < ring[j].hash })
	return &HashPartitioner{kind: kind, ring: ring, n: n}
}

func (p *HashPartitioner) Name() string { return "hash" }

// Locate maps a raw fingerprint to its owning shard: the first ring point
// clockwise from the key, wrapping at the top.
func (p *HashPartitioner) Locate(key uint64) int {
	i := sort.Search(len(p.ring), func(i int) bool { return p.ring[i].hash >= key })
	if i == len(p.ring) {
		i = 0
	}
	return p.ring[i].shard
}

func (p *HashPartitioner) route(q *dataset.Query) (int, error) {
	key, err := core.QueryFingerprint(q, p.kind)
	if err != nil {
		return 0, err
	}
	return p.Locate(key), nil
}

func (p *HashPartitioner) RoutePredict(q *dataset.Query) (int, error) { return p.route(q) }
func (p *HashPartitioner) RouteObserve(q *dataset.Query) (int, error) { return p.route(q) }

// costPerSecond calibrates the optimizer's scalar cost to wall seconds for
// pre-execution category estimation: on the research4 simulator scale a
// cost of ~4000 units corresponds to roughly one elapsed second. The
// mapping only has to be monotone and stable — it decides routing, not
// predictions — and any systematic error simply shifts which shard a
// borderline template warms up on.
const costPerSecond = 4000.0

// CategoryPartitioner routes by the paper's runtime classes — feathers,
// golf balls, bowling balls, wrecking balls — so each shard's window
// specializes on one runtime regime (the per-workload-model operating
// point of the LinkedIn study). Observations route by their measured
// category; predict requests, which have no measured runtime, route by the
// optimizer's cost estimate mapped through the same workload.Categorize
// boundaries. The two can disagree for queries the optimizer misjudges —
// that is inherent to pre-execution routing and is why the router's warm
// fallback keeps mispredicted cold-class traffic servable.
type CategoryPartitioner struct {
	n int
}

// NewCategoryPartitioner routes the four workload categories onto n shards
// round-robin (category index mod n).
func NewCategoryPartitioner(n int) *CategoryPartitioner {
	if n < 1 {
		n = 1
	}
	return &CategoryPartitioner{n: n}
}

func (p *CategoryPartitioner) Name() string { return "category" }

func (p *CategoryPartitioner) RoutePredict(q *dataset.Query) (int, error) {
	if q.Plan == nil {
		return 0, core.ErrNoPlan
	}
	est := q.Plan.Cost / costPerSecond
	return int(workload.Categorize(est)) % p.n, nil
}

func (p *CategoryPartitioner) RouteObserve(q *dataset.Query) (int, error) {
	return int(q.Category) % p.n, nil
}

// Passthrough routes everything to shard 0: the partitioner of a one-shard
// router, where every policy would choose the same and this one computes
// nothing. It is what the stock daemon runs.
type Passthrough struct{}

func (Passthrough) Name() string                             { return "passthrough" }
func (Passthrough) RoutePredict(*dataset.Query) (int, error) { return 0, nil }
func (Passthrough) RouteObserve(*dataset.Query) (int, error) { return 0, nil }
