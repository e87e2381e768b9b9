package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile. Ten is the floor below which a percentile is one or two
// outliers, and the per-layer rows use it. The end-to-end t_vis tails
// gate later changes and must not sit where the distribution steps:
// lossy_tree's steps to a second repair round (1300 ms against 730)
// somewhere in its top 0.5–2 %, and fabric_tenants' to its only repair
// round (48 ms against 22) at 2.2 % ± 0.25 %, the share of updates whose
// datagram the 2 % loss took. With 128 beyond, the rank is p96 of
// lossy_tree's 3200 samples and p96.8 of fabric_tenants' 3984, four
// standard deviations of the loss count short of the step; with 100 it
// was p97.5 there and read 22.5 or 48 ms by the seed.
const (
	minBeyond     = 10
	gateMinBeyond = 128
)

// quantile returns the exact nearest-rank q-quantile of samples sorted
// ascending (0 when empty).
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}

// tailRank lowers q until at least beyond of n samples lie past the
// nearest-rank quantile, never below the median.
func tailRank(n int, q float64, beyond int) float64 {
	if n > 0 {
		if lim := 1 - float64(beyond)/float64(n); q > lim {
			q = lim
		}
	}
	if q < 0.5 {
		q = 0.5
	}
	return q
}

// quantiles sorts samples in place and returns the end-to-end median,
// p95 and p99 (each tail lowered by tailRank to keep gateMinBeyond
// samples past it), plus the rank p99 resolved to.
func quantiles(samples []float64) (p50, p95, p99, rank99 float64) {
	sort.Float64s(samples)
	n := len(samples)
	rank99 = tailRank(n, 0.99, gateMinBeyond)
	return quantile(samples, 0.5), quantile(samples, tailRank(n, 0.95, gateMinBeyond)), quantile(samples, rank99), rank99
}

// median returns the middle of v (mean of the two middles when even),
// without reordering the caller's slice.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// ratio is a/b with 0 for an empty denominator, so counters that stay
// at zero on a workload read 0 and not NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
