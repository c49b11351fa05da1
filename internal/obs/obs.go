// Package obs is the runtime observability layer: a lock-free metrics
// registry with Prometheus text-format exposition and an HTTP surface
// (/metrics, /healthz, /debug/pprof). It exists because the paper's
// contribution is a *worst-case* guarantee — exactly the property that
// mean-throughput figures hide — so the interesting signals here are
// wait-time totals and latency distributions, not averages.
//
// Hot-path instruments (Counter, Gauge, Histogram) are safe for
// concurrent use and never take a lock on the update path: counters
// stripe atomic adds across padded cells, histograms are arrays of
// atomic buckets. Registration is idempotent and mutex-guarded (it
// happens at setup time, not per operation), and reads (exposition)
// see a consistent-enough snapshot without quiescing writers, matching
// the approach of stm.TotalStats.
package obs

import (
	"fmt"
	"math/rand/v2"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// Labels attaches dimensions to a metric series, e.g.
// Labels{"cmd": "GET"}. Nil means no labels.
type Labels map[string]string

// Kind discriminates metric families.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// counterCells stripes a counter across cache-line-padded cells so
// concurrent Adds from many goroutines don't contend on one line.
const counterCells = 8

type paddedInt64 struct {
	v atomic.Int64
	_ [56]byte
}

// Counter is a monotonically increasing sharded counter. The zero
// value is ready to use.
type Counter struct {
	cells [counterCells]paddedInt64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. Negative deltas are not meaningful for counters but are
// not rejected; exposition reports whatever the cells sum to.
func (c *Counter) Add(n int64) {
	// rand/v2's global generator is per-M and lock-free, so this picks
	// a cell without coordinating across goroutines.
	c.cells[rand.Uint64()%counterCells].v.Add(n)
}

// Value sums the cells. Concurrent Adds may or may not be included —
// the same no-quiescence contract as stm.TotalStats.
func (c *Counter) Value() int64 {
	var total int64
	for i := range c.cells {
		total += c.cells[i].v.Load()
	}
	return total
}

// Gauge is a settable instantaneous value. The zero value is ready to
// use.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the value by delta (use negative deltas to decrement).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

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

// series is one labeled instance within a family. Exactly one of the
// value fields is set, matching the family kind.
type series struct {
	labelKeys []string
	labelVals []string
	key       string // canonical label encoding, for dedup and sorting

	counter   *Counter
	gauge     *Gauge
	hist      *Histogram
	counterFn func() int64
	gaugeFn   func() float64
	histFn    func() *metrics.Histogram
}

// family groups all series sharing a metric name.
type family struct {
	name string
	help string
	kind Kind
	// scale multiplies raw histogram values (and bucket edges) at
	// exposition time: 1e-9 converts nanosecond durations to the
	// seconds Prometheus expects; 1 leaves unit-less sizes alone.
	scale float64

	mu     sync.Mutex
	series []*series
	byKey  map[string]*series
}

// Registry holds metric families and renders them. Registration is
// idempotent: asking twice for the same name+labels returns the same
// instrument. A nil *Registry is safe to register against and returns
// working (but unexported) instruments, so libraries can instrument
// unconditionally.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

var nameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
var labelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)

// familyFor returns the family for name, creating it on first use and
// panicking on a kind or scale mismatch — that is a programming error,
// not a runtime condition.
func (r *Registry) familyFor(name, help string, kind Kind, scale float64) *family {
	if !nameRe.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered as %v, was %v", name, kind, f.kind))
		}
		if f.scale != scale {
			panic(fmt.Sprintf("obs: metric %q re-registered with different scale", name))
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind, scale: scale, byKey: make(map[string]*series)}
	r.byName[name] = f
	r.families = append(r.families, f)
	return f
}

// seriesFor returns the series for the given labels, creating it on
// first use.
func (f *family) seriesFor(labels Labels) *series {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if !labelRe.MatchString(k) {
			panic(fmt.Sprintf("obs: invalid label name %q on metric %q", k, f.name))
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	vals := make([]string, len(keys))
	var b strings.Builder
	for i, k := range keys {
		vals[i] = labels[k]
		fmt.Fprintf(&b, "%s=%q,", k, labels[k])
	}
	key := b.String()

	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.byKey[key]; ok {
		return s
	}
	s := &series{labelKeys: keys, labelVals: vals, key: key}
	f.byKey[key] = s
	f.series = append(f.series, s)
	return s
}

// Counter registers (or finds) a counter series.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	if r == nil {
		return new(Counter)
	}
	s := r.familyFor(name, help, KindCounter, 1).seriesFor(labels)
	if s.counter == nil && s.counterFn == nil {
		s.counter = new(Counter)
	}
	if s.counter == nil {
		panic(fmt.Sprintf("obs: metric %q already registered as a counter func", name))
	}
	return s.counter
}

// Gauge registers (or finds) a gauge series.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	if r == nil {
		return new(Gauge)
	}
	s := r.familyFor(name, help, KindGauge, 1).seriesFor(labels)
	if s.gauge == nil && s.gaugeFn == nil {
		s.gauge = new(Gauge)
	}
	if s.gauge == nil {
		panic(fmt.Sprintf("obs: metric %q already registered as a gauge func", name))
	}
	return s.gauge
}

// Histogram registers (or finds) a concurrent duration histogram,
// exposed in seconds.
func (r *Registry) Histogram(name, help string, labels Labels) *Histogram {
	if r == nil {
		return new(Histogram)
	}
	return r.histogram(name, help, labels, 1e-9)
}

// SizeHistogram registers (or finds) a concurrent histogram of
// unit-less sizes (batch sizes, attempt counts), exposed unscaled.
func (r *Registry) SizeHistogram(name, help string, labels Labels) *Histogram {
	if r == nil {
		return new(Histogram)
	}
	return r.histogram(name, help, labels, 1)
}

func (r *Registry) histogram(name, help string, labels Labels, scale float64) *Histogram {
	s := r.familyFor(name, help, KindHistogram, scale).seriesFor(labels)
	if s.hist == nil && s.histFn == nil {
		s.hist = new(Histogram)
	}
	if s.hist == nil {
		panic(fmt.Sprintf("obs: metric %q already registered as a histogram func", name))
	}
	return s.hist
}

// CounterFunc registers a counter whose value is read from fn at
// exposition time — for subsystems that already keep their own atomic
// counters (stm.Stats, wal.Stats).
func (r *Registry) CounterFunc(name, help string, labels Labels, fn func() int64) {
	if r == nil {
		return
	}
	s := r.familyFor(name, help, KindCounter, 1).seriesFor(labels)
	if s.counter != nil {
		panic(fmt.Sprintf("obs: metric %q already registered as a counter", name))
	}
	s.counterFn = fn
}

// GaugeFunc registers a gauge read from fn at exposition time.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	if r == nil {
		return
	}
	s := r.familyFor(name, help, KindGauge, 1).seriesFor(labels)
	if s.gauge != nil {
		panic(fmt.Sprintf("obs: metric %q already registered as a gauge", name))
	}
	s.gaugeFn = fn
}

// HistogramFunc registers a duration histogram whose snapshot is
// produced by fn at exposition time — for subsystems that keep their
// own histogram (the WAL's fsync latency).
func (r *Registry) HistogramFunc(name, help string, labels Labels, fn func() *metrics.Histogram) {
	if r == nil {
		return
	}
	s := r.familyFor(name, help, KindHistogram, 1e-9).seriesFor(labels)
	if s.hist != nil {
		panic(fmt.Sprintf("obs: metric %q already registered as a histogram", name))
	}
	s.histFn = fn
}

// SizeHistogramFunc is HistogramFunc for unit-less size histograms.
func (r *Registry) SizeHistogramFunc(name, help string, labels Labels, fn func() *metrics.Histogram) {
	if r == nil {
		return
	}
	s := r.familyFor(name, help, KindHistogram, 1).seriesFor(labels)
	if s.hist != nil {
		panic(fmt.Sprintf("obs: metric %q already registered as a histogram", name))
	}
	s.histFn = fn
}
