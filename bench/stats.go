package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile
// (choosing-metrics §1): with fewer, the "percentile" is a handful of
// outliers and moves by whole samples from run to run.
const minBeyond = 10

// percentile returns the q-quantile (nearest rank, 0<q<1) of an ascending
// slice and how many samples lie strictly beyond that rank.
func percentile(sorted []float64, q float64) (v float64, beyond int) {
	if len(sorted) == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank], len(sorted) - 1 - rank
}

// tail is percentile with the sample-count rule enforced: it fails rather
// than report a percentile that fewer than need samples lie beyond.
func tail(sorted []float64, q float64, need int) (float64, error) {
	v, beyond := percentile(sorted, q)
	if beyond < need {
		return v, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", q*100, len(sorted), beyond, need)
	}
	return v, nil
}

// windowedTail is the q-quantile made robust against the machine's own
// hiccups. On the development VM both processes freeze together for
// 40–100 ms every 15 s or so; one such freeze delays some thirty open-loop
// requests, which is about the 1% a pooled p99 rests on, so the pooled p99
// read 4 ms or 60 ms by chance. Instead the samples, in schedule order, are
// cut into as many equal windows as still leave need samples beyond the
// quantile in each, and the median of the windows' quantiles is reported: a
// freeze spoils the window it falls in, not the run. With too few samples
// for two windows this is the pooled quantile.
func windowedTail(inOrder []float64, q float64, need int) (float64, error) {
	perWindow := int(math.Ceil(float64(need+1) / (1 - q)))
	windows := max(1, len(inOrder)/perWindow)
	tails := make([]float64, windows)
	for w := range tails {
		chunk := sortedCopy(inOrder[w*len(inOrder)/windows : (w+1)*len(inOrder)/windows])
		var err error
		if tails[w], err = tail(chunk, q, need); err != nil {
			return tails[w], err
		}
	}
	return median(tails), nil
}

// median of an unsorted slice; the slice is not modified.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), because that
// is what the acceptance check computes the spread with. Needs len(xs) >= 2.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median — the
// run-to-run noise figure every bound is judged against.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}
