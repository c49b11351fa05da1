// Package metrics provides the small measurement utilities the
// benchmark harness uses: a log-bucketed duration histogram for
// commit-latency percentiles and Mono, a one-read monotonic clock. The
// histogram is the piece that turns the paper's throughput figures
// into latency distributions, which is where contention-manager
// differences (fairness, worst case) show up even when mean throughput
// ties — the paper's Theorem 1 is precisely a worst-case latency
// statement.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"time"
)

// NumBuckets is the number of log2 buckets: bucket i holds durations
// in [2^i, 2^(i+1)) nanoseconds, which spans 1ns to ~18s at i=34 and
// far beyond at 63. It is exported so concurrent wrappers (internal/obs)
// can share the bucket layout.
const NumBuckets = 64

const histBuckets = NumBuckets

// Histogram is a fixed-size logarithmic histogram of durations. The
// zero value is ready to use. It is not safe for concurrent use; give
// each worker its own histogram and Merge them afterwards.
type Histogram struct {
	counts [histBuckets]uint64
	total  uint64
	sum    time.Duration
	min    time.Duration
	max    time.Duration
}

// bucketOf returns the log2 bucket for d (clamped at zero).
func bucketOf(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	return 63 - bits.LeadingZeros64(uint64(d))
}

// BucketOf returns the log2 bucket index for d: the bucket holding
// durations in [2^i, 2^(i+1)) nanoseconds, with non-positive durations
// in bucket 0.
func BucketOf(d time.Duration) int { return bucketOf(d) }

// BucketUpper returns the exclusive upper edge of bucket i, clamped to
// the largest representable duration for the top buckets whose edge
// would overflow int64.
func BucketUpper(i int) time.Duration {
	if i >= 62 {
		return time.Duration(math.MaxInt64)
	}
	return time.Duration(1) << uint(i+1)
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[bucketOf(d)]++
	h.total++
	h.sum += d
	if h.total == 1 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.total }

// Mean returns the mean observation, or zero when empty.
func (h *Histogram) Mean() time.Duration {
	if h.total == 0 {
		return 0
	}
	return h.sum / time.Duration(h.total)
}

// Min returns the smallest observation, or zero when empty.
func (h *Histogram) Min() time.Duration { return h.min }

// Max returns the largest observation, or zero when empty.
func (h *Histogram) Max() time.Duration { return h.max }

// Quantile returns an upper estimate of the q-quantile (0 <= q <= 1):
// the upper edge of the bucket containing it, so the error is at most
// a factor of two — ample for comparing managers orders of magnitude
// apart on worst-case latency.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(h.total)))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			// Clamp to the observed max: it is both a tighter bound
			// than the bucket edge and immune to the int64 overflow
			// the top buckets' edges would hit.
			upper := BucketUpper(i)
			if upper > h.max {
				return h.max
			}
			return upper
		}
	}
	return h.max
}

// Counts returns a copy of the per-bucket observation counts.
func (h *Histogram) Counts() [NumBuckets]uint64 { return h.counts }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() time.Duration { return h.sum }

// FromBuckets reconstructs a histogram from raw per-bucket counts and
// an observation sum, as captured by a concurrent collector that tracks
// only those two pieces of state. Count is derived from the buckets;
// min and max are approximated by the lower edge of the lowest occupied
// bucket and the upper edge of the highest occupied bucket, which keeps
// Quantile within its documented factor-of-two bound.
func FromBuckets(counts []uint64, sum time.Duration) *Histogram {
	h := &Histogram{sum: sum}
	first := true
	for i, c := range counts {
		if i >= NumBuckets {
			break
		}
		if c == 0 {
			continue
		}
		h.counts[i] = c
		h.total += c
		if first {
			first = false
			if i > 0 {
				h.min = time.Duration(1) << uint(i)
			}
		}
		h.max = BucketUpper(i)
	}
	return h
}

// Merge accumulates other into h.
func (h *Histogram) Merge(other *Histogram) {
	if other.total == 0 {
		return
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	if h.total == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	h.total += other.total
	h.sum += other.sum
}

// String summarizes the distribution.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v max=%v",
		h.total, h.Mean().Round(time.Microsecond),
		h.Quantile(0.50).Round(time.Microsecond),
		h.Quantile(0.99).Round(time.Microsecond),
		h.max.Round(time.Microsecond))
}
