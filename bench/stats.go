package main

import (
	"slices"
	"sort"
)

// Latencies are raw int64 nanosecond samples with exact order
// statistics — not metrics.Histogram, whose log2 buckets resolve a
// factor of two and so cannot see a 10 % regression.

// quantile returns the q-quantile of sorted samples as the order
// statistic of rank ⌈q·n⌉ (nearest-rank: always a value that occurred).
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(q*float64(len(sorted)) + 0.999999999)
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// highQuantile picks the percentile a sample of n supports: the highest
// of the ladder with at least ten samples beyond it. Reported under the
// p99 metric's name with the percentile actually used printed beside it,
// so a short run reports a lower percentile instead of one sample's luck.
func highQuantile(n int) float64 {
	for _, q := range []float64{0.99, 0.95, 0.90, 0.75} {
		if float64(n)*(1-q) >= 10 {
			return q
		}
	}
	return 0.5
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spread is (max − min) / median: how far apart the windows of one run
// were.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (slices.Max(xs) - slices.Min(xs)) / m
}

// latSummary is the order statistics one latency sample set reports.
type latSummary struct {
	n        int
	p50, hi  float64 // microseconds
	hiQ      float64 // the percentile hi is
	maxMicro float64
}

func summarize(samples []int64) latSummary {
	slices.Sort(samples)
	q := highQuantile(len(samples))
	return latSummary{
		n:        len(samples),
		p50:      float64(quantile(samples, 0.5)) / 1e3,
		hi:       float64(quantile(samples, q)) / 1e3,
		hiQ:      q,
		maxMicro: float64(quantile(samples, 1)) / 1e3,
	}
}
