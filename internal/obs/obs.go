// Package obs is the runtime observability layer: an atomic latency
// histogram, writers for the Prometheus text exposition format and a
// checker for it, the STM conflict matrix, and an HTTP surface
// (/metrics, /healthz, /debug/pprof, /debug/stm/conflicts). It exists
// because the paper's contribution is a *worst-case* guarantee —
// exactly the property that mean-throughput figures hide — so the
// interesting signals here are wait-time totals and latency
// distributions, not averages.
//
// obs keeps no registry: a component that exposes metrics writes its
// own exposition from the state it already holds, with the helpers in
// prom.go (kv.Server.WriteMetrics is the one such writer). Histogram
// is safe for concurrent use and never takes a lock on the update
// path; reads see a consistent-enough snapshot without quiescing
// writers, matching the approach of stm.TotalStats.
package obs

import (
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// Histogram is a concurrent collector over metrics.Histogram's bucket
// layout: the same 64 log2 buckets, but each bucket is an atomic
// counter so any goroutine can Observe without coordination. Observe
// costs two uncontended atomic adds; Snapshot reconstructs a plain
// metrics.Histogram (count, quantiles, approximate extrema) without
// stopping writers. The zero value is ready to use.
type Histogram struct {
	buckets [metrics.NumBuckets]atomic.Uint64
	sum     atomic.Int64
}

// Observe records one duration (clamped at zero).
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.buckets[metrics.BucketOf(d)].Add(1)
	h.sum.Add(int64(d))
}

// ObserveSince records the time elapsed since t0.
func (h *Histogram) ObserveSince(t0 time.Time) { h.Observe(time.Since(t0)) }

// ObserveN records a raw unit-less value (a batch size, an attempt
// count) in the same bucket layout.
func (h *Histogram) ObserveN(v int64) { h.Observe(time.Duration(v)) }

// Snapshot returns a point-in-time histogram. Concurrent Observes may
// be partially included (a bucket increment without its sum, or vice
// versa); counts are never lost, only split across snapshots.
func (h *Histogram) Snapshot() *metrics.Histogram {
	var counts [metrics.NumBuckets]uint64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
	}
	return metrics.FromBuckets(counts[:], time.Duration(h.sum.Load()))
}
