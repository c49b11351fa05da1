// Package harness drives the benchmark workloads against the STM: a
// configurable number of worker threads continuously operating on a
// shared structure (forcing contention), under a chosen contention
// manager, with committed transactions per second as the reported
// metric. The applications are the paper's four intset structures
// (Figures 1–4), the container subsystem's hash set, FIFO queue and
// ordered map (Figures 5–7) and the kv store's (Figures 8–10). A
// figure is its entry in Figures; a point of it is (Figure, manager,
// threads) under Options.
package harness

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/stm"
)

// Options are how a point is run, never what it measures: the
// figure fixes that.
type Options struct {
	// Window is the measurement window; it must be positive.
	Window time.Duration
	// Warmup runs before the window opens (after seeding, so it lets
	// the structure and the scheduler settle); zero skips it, and it
	// must not be negative.
	Warmup time.Duration
	// Seed makes the workload reproducible.
	Seed uint64
	// Audit verifies structural integrity after the run.
	Audit bool
	// TxTrace, when positive, installs the STM flight recorder sampling
	// 1 in TxTrace transactions into a conflict matrix (see
	// obs.Conflicts). The measured Point then carries the top-K hottest
	// variables and who-waits-on-whom decision edges next to its
	// throughput. Zero leaves tracing compiled out of the measured path
	// entirely — the recorder hooks stay nil-gated.
	TxTrace int
	// Progress, when non-nil, receives each point as it completes.
	Progress func(Point)
}

// keyRange is the key universe; the paper uses a small set of 256
// integers to force contention.
const keyRange = 256

// rangeSpan is how many keys (omap, kv) or items (queue) a range
// operation covers.
const rangeSpan = 16

// contexts is the figure model's processor count, the paper's
// 8-context testbed: at most contexts attempts run at once, and a
// worker beyond them queues at an attempt boundary, as an OS thread
// queues for a CPU. An attempt takes a context when it starts and holds
// it through its commit; a retry gives it back and queues again. The
// harness never suspends an attempt that has started, so it never parks
// an owner (DESIGN.md §Substitutions).
const contexts = 8

// Point is one measured datum: a (figure, manager, threads) triple
// with its throughput.
type Point struct {
	// Figure and Structure are the figure's ID and application.
	Figure    int
	Structure string
	Manager   string
	Threads   int
	// Mix is the op mix the point ran (empty for the fixed-workload
	// figures).
	Mix string
	// KeyDist is the key distribution the point ran, empty for
	// uniform (the paper's default).
	KeyDist string
	// CommitsPerSec is the figures' y axis: committed transactions
	// per second during the measurement window.
	CommitsPerSec float64
	// Stats are the engine's counters over the measurement window: the
	// difference of the two snapshots that open and close it, so
	// seeding, warmup and the workers' wind-down are not in them. The
	// per-cause abort counts come from the always-on counters, exact
	// even when TxTrace is off. WaitNs is the quantity behind the
	// paper's worst cases: Karma's Figure 10 collapse is threads
	// waiting ~100 resolutions per abort.
	Stats stm.Stats
	// Latency is the distribution of per-transaction wall times over
	// the measurement window: each worker's own reading around its
	// Atomically call, retries included — the paper's Theorem 1 is a
	// statement about exactly this worst case.
	Latency metrics.Histogram
	// HotVars and HotEdges are the flight recorder's attribution: the
	// top-K most conflicted named variables and the hottest
	// aggressor→victim decision edges, from the sampled conflict
	// matrix over the measurement window. Populated only when
	// Options.TxTrace is on; the counts are sample counts, not totals.
	HotVars  []obs.HotObject
	HotEdges []obs.ConflictEdge
}

// pointTopK is how many hot variables and decision edges a traced
// point keeps — enough to name a convoy, few enough to print beside
// its throughput.
const pointTopK = 5

// Run measures one point: fig under manager with threads workers.
func Run(fig Figure, manager string, threads int, opts Options) (Point, error) {
	switch {
	case threads < 1:
		return Point{}, fmt.Errorf("harness: %d threads, want at least 1", threads)
	case opts.Window <= 0:
		return Point{}, fmt.Errorf("harness: window %v, want a positive one", opts.Window)
	case opts.Warmup < 0:
		return Point{}, fmt.Errorf("harness: warmup %v, want zero or more", opts.Warmup)
	}
	keys, err := fig.Keys(keyRange)
	if err != nil {
		return Point{}, err
	}
	point, err := run(fig, manager, threads, opts, fig.App(fig, keys))
	if err != nil {
		return Point{}, err
	}
	if name := keys.Name(); name != "uniform" { // the default stays empty
		point.KeyDist = name
	}
	if opts.Progress != nil {
		opts.Progress(point)
	}
	return point, nil
}

// run measures application as one point of fig; Run has checked the
// settings. Apps holding external resources (the kvwal app's log and
// scratch directory) release them through the optional closer
// interface, and a failed close fails the point: for kvwal it is the
// log's sticky write or fsync error, which the unacknowledged appends
// never surface themselves.
func run(fig Figure, manager string, threads int, opts Options, application app) (point Point, err error) {
	if c, ok := application.(closer); ok {
		defer func() {
			if cerr := c.close(); cerr != nil && err == nil {
				point, err = Point{}, fmt.Errorf("harness: close: %w", cerr)
			}
		}()
	}
	factory, err := core.Factory(manager)
	if err != nil {
		return Point{}, err
	}
	// The STM carries the contention-manager factory; workers are
	// plain goroutines calling s.Atomically, each served by a pooled
	// session with its own manager instance. With threads workers in
	// flight the pool holds threads sessions, so the
	// manager-per-concurrent-transaction model of the paper's sweeps
	// is preserved without pinning.
	stmOpts := []stm.Option{stm.WithManagerFactory(factory)}
	// open is the measurement window. It opens after the first snapshot
	// and closes before the second, so a transaction a worker sees start
	// and end inside it is one of the window's commits: Latency counts
	// at most Stats.Commits. The conflict matrix takes what completes
	// while it is open.
	var open atomic.Bool
	// The flight recorder is opt-in per run: without it the hook sites
	// stay nil-gated, so an untraced sweep measures exactly what it
	// measured before the recorder existed.
	var conflicts *obs.Conflicts
	if opts.TxTrace > 0 {
		conflicts = obs.NewConflicts(manager)
		stmOpts = append(stmOpts, stm.WithTracer(windowSink{&open, conflicts}, opts.TxTrace))
	}
	s := stm.New(stmOpts...)

	seedRng := rand.New(rand.NewPCG(opts.Seed, 0x9e3779b97f4a7c15))
	if err := application.seed(s, seedRng); err != nil {
		return Point{}, fmt.Errorf("harness: seeding: %w", err)
	}

	var stop atomic.Bool
	workerErrs := make([]error, threads)
	latencies := make([]metrics.Histogram, threads)
	procs := make(chan struct{}, contexts)
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		rng := rand.New(rand.NewPCG(opts.Seed+uint64(w)+1, uint64(w)*0x9e37+1))
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			workerErrs[w] = work(&stop, &open, s, procs, application, rng, fig.TailWork, &latencies[w])
		}(w)
	}

	// The atomic per-STM counters make TotalStats safe mid-run, so the
	// measurement window is delimited by two live snapshots instead of
	// per-worker counters read at quiescence.
	time.Sleep(opts.Warmup)
	before := s.TotalStats()
	open.Store(true)
	start := time.Now()
	time.Sleep(opts.Window)
	open.Store(false)
	after := s.TotalStats()
	elapsed := time.Since(start)
	stop.Store(true)
	wg.Wait()
	for _, err := range workerErrs {
		if err != nil {
			return Point{}, err
		}
	}

	point = Point{
		Figure:        fig.ID,
		Structure:     fig.Structure,
		Manager:       manager,
		Threads:       threads,
		Mix:           fig.Mix.Name(),
		CommitsPerSec: float64(after.Commits-before.Commits) / elapsed.Seconds(),
		Stats:         windowStats(before, after),
	}
	if conflicts != nil {
		snap := conflicts.Snapshot(pointTopK)
		point.HotVars = snap.HotObjects
		point.HotEdges = snap.Edges
	}
	for i := range latencies {
		point.Latency.Merge(&latencies[i])
	}
	if opts.Audit {
		if err := application.audit(s); err != nil {
			return Point{}, err
		}
	}
	return point, nil
}

// windowSink passes sampled transactions to sink only while the
// measurement window is open, so seeding, warmup and wind-down stay
// out of a point's hot variables and edges.
type windowSink struct {
	open *atomic.Bool
	sink stm.TraceSink
}

func (w windowSink) TxDone(sum stm.TxSummary, events []stm.TraceEvent) {
	if w.open.Load() {
		w.sink.TxDone(sum, events)
	}
}

// windowStats is after minus before, counter by counter.
func windowStats(before, after stm.Stats) stm.Stats {
	return stm.Stats{
		Commits:              after.Commits - before.Commits,
		Aborts:               after.Aborts - before.Aborts,
		AbortsEnemy:          after.AbortsEnemy - before.AbortsEnemy,
		AbortsValidation:     after.AbortsValidation - before.AbortsValidation,
		AbortsValidationHeld: after.AbortsValidationHeld - before.AbortsValidationHeld,
		AbortsCASRace:        after.AbortsCASRace - before.AbortsCASRace,
		AbortsUser:           after.AbortsUser - before.AbortsUser,
		Conflicts:            after.Conflicts - before.Conflicts,
		EnemyAborts:          after.EnemyAborts - before.EnemyAborts,
		Opens:                after.Opens - before.Opens,
		Halted:               after.Halted - before.Halted,
		WaitNs:               after.WaitNs - before.WaitNs,
		BackoffNs:            after.BackoffNs - before.BackoffNs,
	}
}

// errStopped cancels a worker's in-flight operation when the
// measurement window has closed. Without it a livelock-prone manager
// (the paper's "aggressive" can ping-pong aborts forever under
// symmetric load) would leave two workers retrying against each other
// after the run, and the harness would never join them. The sentinel
// is not ErrAborted, so Atomically surfaces it instead of retrying.
var errStopped = errors.New("harness: measurement window closed")

// work is one worker's loop: draw an operation outside the
// transaction (transactional functions must be retry-safe), run it
// through the goroutine-agnostic entry point on one of procs' contexts,
// record the latency if the transaction ran wholly inside the window.
// One transactional closure serves the whole run — the drawn operation
// is passed through a captured variable — so the measured loop
// allocates nothing of its own per transaction.
func work(stop, open *atomic.Bool, s *stm.STM, procs chan struct{}, application app, rng *rand.Rand, tailWork int, lat *metrics.Histogram) error {
	var d opDesc
	held := false // the current attempt holds a context
	// Apps that can name their operations (the jobs pipeline's verbs)
	// label each transaction so the conflict matrix's decision edges
	// read "promote waits on complete" instead of two anonymous rows.
	// The label is an interned id; setting it is one atomic store.
	lb, _ := application.(labeler)
	var lbl stm.Label
	fn := func(tx *stm.Tx) error {
		if held {
			<-procs //stm:impure(the figure model: a retry gives its context back at the attempt boundary)
		}
		held = false
		if stop.Load() {
			return errStopped
		}
		procs <- struct{}{} //stm:impure(the figure model: an attempt queues for a context before it opens anything)
		held = true
		if lb != nil {
			tx.SetLabel(lbl)
		}
		if err := application.step(tx, d); err != nil {
			return err
		}
		spin(tailWork)
		return nil
	}
	for !stop.Load() {
		d = application.draw(rng)
		if lb != nil {
			lbl = lb.label(d)
		}
		inWindow := open.Load()
		opStart := metrics.Mono()
		err := s.Atomically(fn)
		if held {
			<-procs
			held = false
		}
		if errors.Is(err, errStopped) {
			return nil
		}
		if err != nil {
			return fmt.Errorf("harness: worker: %w", err)
		}
		if inWindow && open.Load() {
			lat.Observe(metrics.Mono() - opStart)
		}
	}
	return nil
}

// spinSink defeats dead-code elimination of the tail work.
var spinSink atomic.Uint64

// spin performs n steps of local arithmetic — the uncontended work at
// the end of a transaction in the low-contention scenario.
func spin(n int) {
	if n <= 0 {
		return
	}
	x := uint64(88172645463325252)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink.Store(x)
}
