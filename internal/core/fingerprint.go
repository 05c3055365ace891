package core

import (
	"math"

	"repro/internal/dataset"
)

// Fingerprint is the repository's one template-fingerprint function: 64-bit
// FNV-1a over the IEEE-754 bit patterns of a feature vector. Two queries
// that differ only in constants the feature vector does not encode (the
// recurring-template case) fingerprint identically, which is exactly what
// both consumers want:
//
//   - the per-generation prediction cache keys cached predictions by it
//     (guarded by an exact vector compare, so a collision degrades to a
//     cache miss, never a wrong prediction);
//   - the consistent-hash shard partitioner keys ring lookups by it, so a
//     template's traffic — and therefore its training observations — stick
//     to one shard.
//
// Hashing bit patterns rather than values means 0.0 and −0.0 fingerprint
// apart; every consumer that needs equality semantics pairs the fingerprint
// with the same bit-level comparison. The function is a pure deterministic
// map with no process state: the same vector fingerprints identically
// across runs, hosts, and packages (asserted by the cross-package
// determinism test in internal/shard).
func Fingerprint(f []float64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, v := range f {
		bits := math.Float64bits(v)
		for s := 0; s < 64; s += 8 {
			h ^= (bits >> s) & 0xff
			h *= prime64
		}
	}
	return h
}

// QueryFingerprint extracts the feature vector of a planned query (per the
// given feature kind) and returns its Fingerprint. It fails exactly when
// feature extraction does (ErrNoPlan for plan features on an unplanned
// query, parse errors for SQL-text features). A query from the plan cache
// brings its plan vector's fingerprint along, and is not hashed again.
func QueryFingerprint(q *dataset.Query, kind FeatureKind) (uint64, error) {
	if fp, ok := memoFingerprint(q, kind); ok {
		return fp, nil
	}
	f, err := queryFeature(q, kind)
	if err != nil {
		return 0, err
	}
	return Fingerprint(f), nil
}

// memoFingerprint returns the Fingerprint of q's feature vector of the given
// kind when q's plan-cache entry stored it: plan features only, since SQL
// text features are extracted afresh every time.
func memoFingerprint(q *dataset.Query, kind FeatureKind) (uint64, bool) {
	if kind == SQLFeatures || q.Memo == nil || q.PlanFeat == nil {
		return 0, false
	}
	return q.Memo.Fingerprint, true
}
