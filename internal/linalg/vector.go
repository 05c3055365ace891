package linalg

import (
	"fmt"
	"math"
)

// Dot returns the inner product of a and b.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Norm returns the Euclidean norm of v.
func Norm(v []float64) float64 {
	// Scaled accumulation avoids overflow for large components.
	mx := 0.0
	for _, x := range v {
		if a := math.Abs(x); a > mx {
			mx = a
		}
	}
	if mx == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		r := x / mx
		s += r * r
	}
	return mx * math.Sqrt(s)
}

// Dist returns the Euclidean distance between a and b.
func Dist(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: Dist length mismatch %d vs %d", len(a), len(b)))
	}
	s := 0.0
	for i, v := range a {
		d := v - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// SqDistStride is how many terms SqDist4 accumulates between looks at its
// limit: often enough that a hopeless group stops early, rarely enough that
// the compare is free beside the sixteen multiply-adds per candidate. It is
// exported for knn's blocked scorer, which takes the same first look from one
// SqDistCols call over the first SqDistStride rows of a feature-major block.
const SqDistStride = 16

// SqDist4 returns the squared Euclidean distances from p0..p3 to q, all of
// length len(q). Each sum adds (pₖ[j]−q[j])² for j ascending — exactly the
// operations, in the order, of Dist before its square root — so
// math.Sqrt(sₖ) is bit-identical to Dist(pₖ, q); the four sums only share
// the loop, which gives the processor four independent add chains where
// Dist has one.
//
// Every SqDistStride terms, if all four partial sums exceed limit, the
// remaining terms are skipped and ok is false (the sums are then partial).
// A sum of squares never decreases as terms are added, so each final sum
// would exceed limit too. Pass +Inf to always finish; a NaN partial sum
// never compares greater, so it never stops the group either.
func SqDist4(p0, p1, p2, p3, q []float64, limit float64) (s0, s1, s2, s3 float64, ok bool) {
	for lo := 0; lo < len(q); lo += SqDistStride {
		hi := min(lo+SqDistStride, len(q))
		qb := q[lo:hi]
		a, b, c, d := p0[lo:hi], p1[lo:hi], p2[lo:hi], p3[lo:hi]
		for j, x := range qb {
			d0 := a[j] - x
			s0 += d0 * d0
			d1 := b[j] - x
			s1 += d1 * d1
			d2 := c[j] - x
			s2 += d2 * d2
			d3 := d[j] - x
			s3 += d3 * d3
		}
		if s0 > limit && s1 > limit && s2 > limit && s3 > limit {
			return s0, s1, s2, s3, false
		}
	}
	return s0, s1, s2, s3, true
}

// CosineDistance returns 1 - cos(a, b). Zero vectors are treated as
// maximally distant (distance 1) from everything, including each other.
func CosineDistance(a, b []float64) float64 {
	return CosineDistanceTo(a, b, Norm(b))
}

// CosineDistanceTo is CosineDistance(a, b) with b's norm precomputed: scan
// loops ranking many candidates a against one query b hoist Norm(b) out of
// the loop. The arithmetic is operation-for-operation the same as passing
// Norm(b) inline, so results are bit-identical to CosineDistance.
func CosineDistanceTo(a, b []float64, bNorm float64) float64 {
	na := Norm(a)
	if na == 0 || bNorm == 0 {
		return 1
	}
	c := Dot(a, b) / (na * bNorm)
	if c > 1 {
		c = 1
	} else if c < -1 {
		c = -1
	}
	return 1 - c
}

// Axpy computes y += alpha * x in place.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("linalg: Axpy length mismatch %d vs %d", len(x), len(y)))
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// ScaleVec multiplies v by s in place.
func ScaleVec(s float64, v []float64) {
	for i := range v {
		v[i] *= s
	}
}

// Mean returns the arithmetic mean of v (0 for an empty slice).
func Mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// Variance returns the population variance of v.
func Variance(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	m := Mean(v)
	s := 0.0
	for _, x := range v {
		d := x - m
		s += d * d
	}
	return s / float64(len(v))
}

// Clone returns a copy of v.
func CloneVec(v []float64) []float64 {
	out := make([]float64, len(v))
	copy(out, v)
	return out
}
