// Package harness drives the benchmark workloads against the STM: a
// configurable number of worker threads continuously operating on a
// shared structure (forcing contention), under a chosen contention
// manager, with committed transactions per second as the reported
// metric. The applications are the paper's four intset structures
// (Figures 1–4) and the container subsystem's hash set, FIFO queue
// and ordered map (Figures 5–7), the latter with configurable
// lookup/insert/delete/range op mixes (see workload.NewOpMix).
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
	"repro/internal/workload"
)

// Config describes one benchmark run (one point of a figure).
type Config struct {
	// Structure is the benchmark application: one of the paper's four
	// ("list", "skiplist", "rbtree", "rbforest") or a container
	// structure ("hashset", "queue", "omap") — see Structures.
	Structure string
	// Manager is the contention manager's registry name.
	Manager string
	// Threads is the number of worker goroutines (the figures' x
	// axis).
	Threads int
	// Duration is the measurement window.
	Duration time.Duration
	// Warmup runs before measurement starts (populates the structure
	// and lets the scheduler settle).
	Warmup time.Duration
	// KeyRange is the key universe; the paper uses a small set of 256
	// integers to force contention.
	KeyRange int
	// KeyDist names the key distribution: "uniform" (the paper's
	// workload, default), "zipf" or "zipf:<exponent>" for skewed
	// contention concentrated on hot keys.
	KeyDist string
	// Mix names the container op mix (see workload.NewOpMix):
	// "update" (the paper's 50/50 insert/delete, default),
	// "readheavy", "mixed", "rangeheavy" or explicit "w:l,i,d,r"
	// weights. The intset structures always run the paper's fixed
	// update workload; the mix applies to the container structures.
	Mix string
	// TailWork adds an uncontended computation of roughly TailWork
	// arithmetic steps at the end of every transaction, reproducing
	// Figure 3's low-contention scenario ("threads perform
	// computations unrelated to the effective transactions at the
	// end").
	TailWork int
	// ForestAllProb is the probability that a red-black forest
	// operation updates all trees rather than one, producing the
	// high-variance transaction lengths of Figure 4.
	ForestAllProb float64
	// Seed makes the workload reproducible.
	Seed uint64
	// Audit verifies structural integrity after the run.
	Audit bool
	// TxTrace, when positive, installs the STM flight recorder sampling
	// 1 in TxTrace transactions into a conflict matrix (see
	// obs.Conflicts). The measured Point then carries the top-K hottest
	// variables and who-waits-on-whom decision edges next to its
	// throughput. Zero (the default) leaves tracing compiled out of the
	// measured path entirely — the recorder hooks stay nil-gated.
	TxTrace int
}

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

// withDefaults fills the zero fields with the paper's parameters.
// ForestAllProb and Seed are taken as given: zero is a meaningful
// value for both.
func (c Config) withDefaults() Config {
	if c.Threads <= 0 {
		c.Threads = 1
	}
	if c.Duration <= 0 {
		c.Duration = 300 * time.Millisecond
	}
	if c.Warmup <= 0 {
		c.Warmup = 50 * time.Millisecond
	}
	if c.KeyRange <= 0 {
		c.KeyRange = 256
	}
	return c
}

// Point is one measured datum: a (structure, manager, threads) triple
// with its throughput.
type Point struct {
	Structure string
	Manager   string
	Threads   int
	// Mix is the op mix the point ran (empty for the intset
	// structures, which always run the paper's fixed update workload).
	Mix string
	// KeyDist is the key distribution the point ran, empty for
	// uniform (the paper's default).
	KeyDist string
	// Figure is the paper figure the point belongs to; zero when the
	// point was run outside a figure sweep (RunFigure stamps it).
	Figure int
	// CommitsPerSec is the figures' y axis: committed transactions
	// per second during the measurement window.
	CommitsPerSec float64
	// Commits is the raw number of commits inside the window.
	Commits int64
	// Aborts, Conflicts and EnemyAborts aggregate the run's totals
	// (window plus warmup).
	Aborts      int64
	Conflicts   int64
	EnemyAborts int64
	// AbortsEnemy, AbortsValidation and AbortsCASRace partition Aborts
	// by cause (see stm.Stats); AbortsUser counts user-error aborts,
	// which are not retried and sit outside the partition. They come
	// from the engine's always-on counters, so they are exact even when
	// TxTrace is off.
	AbortsEnemy      int64
	AbortsValidation int64
	AbortsCASRace    int64
	AbortsUser       int64
	// AbortRate is total aborts / total attempts for the whole run.
	AbortRate float64
	// WaitNs and BackoffNs aggregate the run's time spent waiting on
	// the contention manager's say-so (policy) and in engine-level
	// backoff (mechanism) — see stm.Stats. Wait time is the quantity
	// behind the paper's worst cases: Karma's Figure 10 collapse is
	// threads waiting ~100 resolutions per abort.
	WaitNs    int64
	BackoffNs int64
	// Latency is the distribution of per-transaction wall times: each
	// worker's own reading around its Atomically call, retries
	// included — the paper's Theorem 1 is a statement about exactly
	// this worst case.
	Latency metrics.Histogram
	// HotVars and HotEdges are the flight recorder's attribution: the
	// top-K most conflicted named variables and the hottest
	// aggressor→victim decision edges, from the sampled conflict
	// matrix. Populated only when Config.TxTrace is on; the counts are
	// sample counts, not run totals.
	HotVars  []obs.HotObject
	HotEdges []obs.ConflictEdge
}

// pointTopK is how many hot variables and decision edges a traced
// point keeps — enough to name a convoy, few enough to print beside
// its throughput.
const pointTopK = 5

// Run executes one benchmark configuration.
func Run(cfg Config) (Point, error) {
	cfg = cfg.withDefaults()
	keys, err := workload.NewKeyDist(cfg.KeyDist, cfg.KeyRange)
	if err != nil {
		return Point{}, err
	}
	mix, err := workload.NewOpMix(cfg.Mix)
	if err != nil {
		return Point{}, err
	}
	application, err := newApp(cfg, keys, mix)
	if err != nil {
		return Point{}, err
	}
	point, err := run(cfg, application)
	if err != nil {
		return Point{}, err
	}
	if name := keys.Name(); name != "uniform" { // the default stays empty
		point.KeyDist = name
	}
	return point, nil
}

// run measures application under cfg, which withDefaults has filled.
// Apps holding external resources (the kvwal app's log and scratch
// directory) release them through the optional closer interface, and
// a failed close fails the point: for kvwal it is the log's sticky
// write or fsync error, which the unacknowledged appends never
// surface themselves.
func run(cfg Config, application app) (point Point, err error) {
	if c, ok := application.(closer); ok {
		defer func() {
			if cerr := c.close(); cerr != nil && err == nil {
				point, err = Point{}, fmt.Errorf("harness: close: %w", cerr)
			}
		}()
	}
	factory, err := core.Factory(cfg.Manager)
	if err != nil {
		return Point{}, err
	}
	// The STM carries the contention-manager factory; workers are
	// plain goroutines calling s.Atomically, each served by a pooled
	// session with its own manager instance. With cfg.Threads workers
	// in flight the pool holds cfg.Threads sessions, so the
	// manager-per-concurrent-transaction model of the paper's sweeps
	// is preserved without pinning.
	stmOpts := []stm.Option{stm.WithManagerFactory(factory)}
	// The flight recorder is opt-in per run: without it the hook sites
	// stay nil-gated, so an untraced sweep measures exactly what it
	// measured before the recorder existed.
	var conflicts *obs.Conflicts
	if cfg.TxTrace > 0 {
		conflicts = obs.NewConflicts(cfg.Manager)
		stmOpts = append(stmOpts, stm.WithTracer(conflicts, cfg.TxTrace))
	}
	s := stm.New(stmOpts...)

	seedRng := rand.New(rand.NewPCG(cfg.Seed, 0x9e3779b97f4a7c15))
	if err := application.seed(s, seedRng); err != nil {
		return Point{}, fmt.Errorf("harness: seeding: %w", err)
	}

	var stop atomic.Bool
	workerErrs := make([]error, cfg.Threads)
	latencies := make([]metrics.Histogram, cfg.Threads)
	procs := make(chan struct{}, contexts)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Threads; w++ {
		rng := rand.New(rand.NewPCG(cfg.Seed+uint64(w)+1, uint64(w)*0x9e37+1))
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			workerErrs[w] = work(&stop, s, procs, application, rng, cfg, &latencies[w])
		}(w)
	}

	// The atomic per-STM counters make TotalStats safe mid-run, so the
	// measurement window is delimited by two live snapshots instead of
	// per-worker commit counters read at quiescence.
	time.Sleep(cfg.Warmup)
	before := s.TotalStats().Commits
	start := time.Now()
	time.Sleep(cfg.Duration)
	after := s.TotalStats().Commits
	elapsed := time.Since(start)
	stop.Store(true)
	wg.Wait()
	for _, err := range workerErrs {
		if err != nil {
			return Point{}, err
		}
	}

	total := s.TotalStats()
	point = Point{
		Structure:     cfg.Structure,
		Manager:       cfg.Manager,
		Threads:       cfg.Threads,
		Mix:           application.mixName(),
		Commits:       after - before,
		CommitsPerSec: float64(after-before) / elapsed.Seconds(),
		Aborts:        total.Aborts,
		Conflicts:     total.Conflicts,
		EnemyAborts:   total.EnemyAborts,
		AbortRate:     total.AbortRate(),
		WaitNs:        total.WaitNs,
		BackoffNs:     total.BackoffNs,

		AbortsEnemy:      total.AbortsEnemy,
		AbortsValidation: total.AbortsValidation,
		AbortsCASRace:    total.AbortsCASRace,
		AbortsUser:       total.AbortsUser,
	}
	if conflicts != nil {
		snap := conflicts.Snapshot(pointTopK)
		point.HotVars = snap.HotObjects
		point.HotEdges = snap.Edges
	}
	for i := range latencies {
		point.Latency.Merge(&latencies[i])
	}
	if cfg.Audit {
		if err := application.audit(s); err != nil {
			return Point{}, err
		}
	}
	return point, nil
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
// record the latency. One transactional closure serves the whole run —
// the drawn operation is passed through a captured variable — so the
// measured loop allocates nothing of its own per transaction.
func work(stop *atomic.Bool, s *stm.STM, procs chan struct{}, application app, rng *rand.Rand, cfg Config, lat *metrics.Histogram) error {
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
		spin(cfg.TailWork)
		return nil
	}
	for !stop.Load() {
		d = application.draw(rng)
		if lb != nil {
			lbl = lb.label(d)
		}
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
		lat.Observe(metrics.Mono() - opStart)
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
