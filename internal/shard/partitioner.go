package shard

import (
	"fmt"
	"hash/fnv"
	"sort"

	"repro/internal/core"
	"repro/internal/dataset"
)

// Partitioner maps queries to shard indexes. Predicts and observations
// route alike: both use only what is known before execution, so a shard
// trains on exactly the traffic it serves.
//
// Implementations must be deterministic and safe for concurrent use: the
// router calls them from every request goroutine.
type Partitioner interface {
	// Name identifies the partitioner on /v1/shards and in logs.
	Name() string
	// Route returns the owning shard index for a planned query.
	Route(q *dataset.Query) (int, error)
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

func (p *HashPartitioner) Route(q *dataset.Query) (int, error) {
	key, err := core.QueryFingerprint(q, p.kind)
	if err != nil {
		return 0, err
	}
	return p.Locate(key), nil
}

// Passthrough routes everything to shard 0: the partitioner of a one-shard
// router, where every policy would choose the same and this one computes
// nothing. It is what the stock daemon runs.
type Passthrough struct{}

func (Passthrough) Name() string                      { return "passthrough" }
func (Passthrough) Route(*dataset.Query) (int, error) { return 0, nil }
