package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile: a
// percentile with fewer is an extreme value, not a statistic.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of samples and
// whether it is reportable: at least minBeyond samples must rank above it,
// so p95 needs 200 samples and p50 needs 20.
func percentile(samples []float64, p float64) (float64, bool) {
	n := len(samples)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], n-rank >= minBeyond
}

// median returns the middle of samples (the mean of the two middle values
// for an even count), or 0 for none. Unlike percentile it is reported for any
// sample count: it is the run's central value, not a tail.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
