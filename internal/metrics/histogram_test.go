package metrics_test

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/metrics"
)

func TestHistogramEmpty(t *testing.T) {
	var h metrics.Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatalf("empty histogram not all-zero: %s", h.String())
	}
}

func TestHistogramSingleObservation(t *testing.T) {
	var h metrics.Histogram
	h.Observe(100 * time.Microsecond)
	if h.Count() != 1 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Mean() != 100*time.Microsecond {
		t.Fatalf("mean = %v", h.Mean())
	}
	if h.Min() != h.Max() || h.Min() != 100*time.Microsecond {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
	// The quantile is an upper bound within 2x.
	q := h.Quantile(0.5)
	if q < 100*time.Microsecond || q > 200*time.Microsecond {
		t.Fatalf("p50 = %v, want within [100us, 200us]", q)
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	var h metrics.Histogram
	h.Observe(-5 * time.Second)
	if h.Max() != 0 || h.Count() != 1 {
		t.Fatalf("negative observation mishandled: %s", h.String())
	}
}

func TestHistogramQuantileMonotone(t *testing.T) {
	var h metrics.Histogram
	rng := rand.New(rand.NewPCG(4, 2))
	for i := 0; i < 1000; i++ {
		h.Observe(time.Duration(rng.Int64N(int64(time.Second))))
	}
	last := time.Duration(0)
	for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.9, 0.99, 1} {
		v := h.Quantile(q)
		if v < last {
			t.Fatalf("quantile not monotone at %g: %v < %v", q, v, last)
		}
		last = v
	}
	if h.Quantile(1) < h.Quantile(0.999) {
		t.Fatal("p100 below p99.9")
	}
}

func TestHistogramQuantileWithinFactorTwo(t *testing.T) {
	// All mass at one value: every quantile must be within [v, 2v].
	var h metrics.Histogram
	v := 777 * time.Microsecond
	for i := 0; i < 100; i++ {
		h.Observe(v)
	}
	for _, q := range []float64{0.01, 0.5, 0.99} {
		got := h.Quantile(q)
		if got < v || got > 2*v {
			t.Fatalf("quantile(%g) = %v outside [v, 2v] for v=%v", q, got, v)
		}
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b metrics.Histogram
	a.Observe(time.Millisecond)
	a.Observe(2 * time.Millisecond)
	b.Observe(4 * time.Millisecond)
	a.Merge(&b)
	if a.Count() != 3 {
		t.Fatalf("merged count = %d, want 3", a.Count())
	}
	if a.Max() != 4*time.Millisecond {
		t.Fatalf("merged max = %v", a.Max())
	}
	if a.Min() != time.Millisecond {
		t.Fatalf("merged min = %v", a.Min())
	}
	var empty metrics.Histogram
	a.Merge(&empty) // merging empty is a no-op
	if a.Count() != 3 {
		t.Fatalf("merge with empty changed count to %d", a.Count())
	}
}

// TestQuickHistogramInvariants: for arbitrary observation sets, count
// and extrema are exact and quantiles bracket the data.
func TestQuickHistogramInvariants(t *testing.T) {
	property := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		var h metrics.Histogram
		min := time.Duration(math.MaxInt64)
		max := time.Duration(0)
		for _, r := range raw {
			d := time.Duration(r)
			h.Observe(d)
			if d < min {
				min = d
			}
			if d > max {
				max = d
			}
		}
		if h.Count() != uint64(len(raw)) {
			return false
		}
		if h.Min() != min || h.Max() != max {
			return false
		}
		// Every quantile lies within [min, max] (upper-bound estimate
		// clamped at max).
		for _, q := range []float64{0, 0.5, 1} {
			v := h.Quantile(q)
			if v < min && v < max { // v may exceed min due to bucket upper edge
				return false
			}
			if v > max && max > 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramAllZeroObservations(t *testing.T) {
	// All observations are zero: every quantile is exactly zero, not
	// the upper edge of bucket 0. (A previous version returned 2ns.)
	var h metrics.Histogram
	for i := 0; i < 10; i++ {
		h.Observe(0)
	}
	for _, q := range []float64{0, 0.5, 1} {
		if v := h.Quantile(q); v != 0 {
			t.Fatalf("quantile(%g) = %v, want 0", q, v)
		}
	}
}

func TestHistogramHugeDuration(t *testing.T) {
	// Observations in the top buckets must not overflow the bucket
	// upper edge into a negative duration. (A previous version computed
	// 1<<63 for bucket 62.)
	var h metrics.Histogram
	huge := time.Duration(math.MaxInt64)
	h.Observe(huge)
	h.Observe(huge / 2)
	for _, q := range []float64{0.5, 1} {
		v := h.Quantile(q)
		if v <= 0 {
			t.Fatalf("quantile(%g) = %v, want positive", q, v)
		}
		if v > huge {
			t.Fatalf("quantile(%g) = %v exceeds max", q, v)
		}
	}
	if h.Quantile(1) != huge {
		t.Fatalf("p100 = %v, want clamp to observed max %v", h.Quantile(1), huge)
	}
}

func TestHistogramMergeQuantileMonotone(t *testing.T) {
	// Merging histograms whose mass lives in different buckets must
	// keep quantiles monotone in q and bracketed by the merged extrema.
	var lo, hi metrics.Histogram
	rng := rand.New(rand.NewPCG(7, 7))
	for i := 0; i < 500; i++ {
		lo.Observe(time.Duration(1 + rng.Int64N(int64(time.Microsecond))))
		hi.Observe(time.Second + time.Duration(rng.Int64N(int64(time.Second))))
	}
	lo.Merge(&hi)
	if lo.Count() != 1000 {
		t.Fatalf("merged count = %d", lo.Count())
	}
	last := time.Duration(0)
	for _, q := range []float64{0, 0.1, 0.4, 0.5, 0.6, 0.9, 0.99, 1} {
		v := lo.Quantile(q)
		if v < last {
			t.Fatalf("merged quantile not monotone at %g: %v < %v", q, v, last)
		}
		if v < lo.Min() || v > lo.Max() {
			t.Fatalf("merged quantile(%g) = %v outside [%v, %v]", q, v, lo.Min(), lo.Max())
		}
		last = v
	}
	// Half the mass is sub-microsecond, half is super-second: p25 must
	// be tiny and p75 must be huge.
	if p := lo.Quantile(0.25); p > 2*time.Microsecond {
		t.Fatalf("p25 = %v, want sub-2us", p)
	}
	if p := lo.Quantile(0.75); p < time.Second {
		t.Fatalf("p75 = %v, want >= 1s", p)
	}
}

func TestBucketHelpers(t *testing.T) {
	if metrics.BucketOf(0) != 0 || metrics.BucketOf(-time.Second) != 0 {
		t.Fatal("non-positive durations must land in bucket 0")
	}
	if metrics.BucketOf(1) != 0 || metrics.BucketOf(2) != 1 || metrics.BucketOf(3) != 1 {
		t.Fatal("small-bucket boundaries wrong")
	}
	if metrics.BucketUpper(0) != 2 {
		t.Fatalf("BucketUpper(0) = %v", metrics.BucketUpper(0))
	}
	for i := 0; i < metrics.NumBuckets; i++ {
		if metrics.BucketUpper(i) <= 0 {
			t.Fatalf("BucketUpper(%d) = %v, not positive", i, metrics.BucketUpper(i))
		}
	}
}

func TestFromBuckets(t *testing.T) {
	var h metrics.Histogram
	for _, d := range []time.Duration{time.Microsecond, 3 * time.Microsecond, time.Millisecond} {
		h.Observe(d)
	}
	counts := h.Counts()
	got := metrics.FromBuckets(counts[:], h.Sum())
	if got.Count() != h.Count() || got.Sum() != h.Sum() {
		t.Fatalf("round-trip count/sum = %d/%v, want %d/%v", got.Count(), got.Sum(), h.Count(), h.Sum())
	}
	if got.Counts() != counts {
		t.Fatal("round-trip bucket counts differ")
	}
	// Extrema are bucket-edge approximations bracketing the real ones.
	if got.Min() > h.Min() || got.Max() < h.Max() {
		t.Fatalf("approx extrema [%v, %v] don't bracket exact [%v, %v]",
			got.Min(), got.Max(), h.Min(), h.Max())
	}
	// Quantiles stay within the factor-of-two contract.
	for _, q := range []float64{0.5, 1} {
		v, exact := got.Quantile(q), h.Quantile(q)
		if v < exact/2 || v > 2*exact {
			t.Fatalf("reconstructed quantile(%g) = %v vs exact %v", q, v, exact)
		}
	}
	if empty := metrics.FromBuckets(nil, 0); empty.Count() != 0 || empty.Quantile(0.5) != 0 {
		t.Fatal("FromBuckets(nil) not empty")
	}
}
