package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail
// percentile: a p99 read from fewer than 1000 samples would rest on a
// handful of points, so the tail helper refuses it instead.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile (0 < q ≤ 1) of sorted:
// the smallest sample with at least q·n samples at or below it. It
// returns 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	return sorted[rank(n, q)-1]
}

// rank is the 1-based nearest rank of the q-quantile of n samples.
func rank(n int, q float64) int {
	k := int(math.Ceil(q*float64(n) - 1e-9))
	return min(max(k, 1), n)
}

// tail returns the nearest-rank q-quantile of sorted when at least
// minBeyond samples lie above its rank; ok is false otherwise, and the
// caller reports the metric as missing rather than as a number from a
// lower percentile.
func tail(sorted []float64, q float64) (v float64, ok bool) {
	n := len(sorted)
	k := rank(n, q)
	if n == 0 || n-k < minBeyond {
		return 0, false
	}
	return sorted[k-1], true
}

// median is the nearest-rank median of xs (unsorted).
func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// stddev is the population standard deviation.
func stddev(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := mean(xs)
	s := 0.0
	for _, x := range xs {
		s += (x - m) * (x - m)
	}
	return math.Sqrt(s / float64(len(xs)))
}
