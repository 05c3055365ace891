// Package statutil provides the deterministic randomness and summary
// statistics used throughout the reproduction. Every source of randomness
// (workload generation, predicate constants, execution noise) flows through
// a named, seeded RNG stream so that experiments are exactly reproducible.
package statutil

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
)

// RNG is a deterministic pseudo-random stream. It wraps math/rand with a
// seed derived from a root seed and a purpose string, so independent parts
// of the system draw from independent streams.
type RNG struct {
	*rand.Rand
}

// NewRNG returns a stream keyed by (seed, purpose).
func NewRNG(seed int64, purpose string) *RNG {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d\x00%s", seed, purpose)
	return &RNG{Rand: rand.New(rand.NewSource(int64(h.Sum64())))}
}

// NoiseFactor returns a multiplicative noise factor centered on 1 with
// log-space standard deviation sigma.
func (r *RNG) NoiseFactor(sigma float64) float64 {
	return math.Exp(sigma * r.NormFloat64())
}

// Uniform draws uniformly from [lo, hi).
func (r *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// IntBetween draws an integer uniformly from [lo, hi] inclusive.
func (r *RNG) IntBetween(lo, hi int) int {
	if hi <= lo {
		return lo
	}
	return lo + r.Intn(hi-lo+1)
}

// SampleInts returns k distinct integers drawn without replacement from
// [0, n). It panics if k > n.
func (r *RNG) SampleInts(n, k int) []int {
	if k > n {
		panic(fmt.Sprintf("statutil: cannot sample %d from %d", k, n))
	}
	perm := r.Perm(n)
	out := make([]int, k)
	copy(out, perm[:k])
	sort.Ints(out)
	return out
}

// Quantile returns the q-quantile (0 <= q <= 1) of values using linear
// interpolation. The input is not modified.
func Quantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := make([]float64, len(values))
	copy(s, values)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Summary holds basic descriptive statistics.
type Summary struct {
	N               int
	Mean, Std       float64
	Min, Max        float64
	Median, P5, P95 float64
}

// Summarize computes descriptive statistics for values.
func Summarize(values []float64) Summary {
	s := Summary{N: len(values)}
	if len(values) == 0 {
		s.Min, s.Max, s.Median, s.P5, s.P95 = math.NaN(), math.NaN(), math.NaN(), math.NaN(), math.NaN()
		return s
	}
	s.Min, s.Max = values[0], values[0]
	sum := 0.0
	for _, v := range values {
		sum += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean = sum / float64(len(values))
	ss := 0.0
	for _, v := range values {
		d := v - s.Mean
		ss += d * d
	}
	s.Std = math.Sqrt(ss / float64(len(values)))
	s.Median = Quantile(values, 0.5)
	s.P5 = Quantile(values, 0.05)
	s.P95 = Quantile(values, 0.95)
	return s
}
