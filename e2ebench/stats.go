package main

import (
	"math"
	"sort"
)

// quantile returns the nearest-rank q-quantile of xs (sorted in place).
// +Inf entries, the latency of a failed op, sort last.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// beyond is the number of samples above the nearest-rank q-quantile of n.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// tailLadder is the set of percentiles a tail is reported at.
var tailLadder = []float64{0.9999, 0.999, 0.99, 0.9, 0.5}

// tailPercentile returns the highest percentile of the ladder that leaves
// at least 10 of n samples beyond it, or 0 when none does.
func tailPercentile(n int) float64 {
	for _, q := range tailLadder {
		if beyond(n, q) >= 10 {
			return q
		}
	}
	return 0
}

// median returns the median of xs (sorted in place), averaging the middle
// pair of an even count.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
