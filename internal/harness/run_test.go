package harness

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/stm"
	"repro/internal/workload"
)

// figure returns the figure with the given ID.
func figure(t testing.TB, id int) Figure {
	t.Helper()
	fig, err := FigureByID(id)
	if err != nil {
		t.Fatal(err)
	}
	return fig
}

// newApp builds fig's application over its own key distribution.
func newApp(t testing.TB, fig Figure) app {
	t.Helper()
	keys, err := fig.Keys(keyRange)
	if err != nil {
		t.Fatal(err)
	}
	return fig.App(fig, keys)
}

// TestForestAllProbZero: a ForestAllProb of zero is honoured, so the
// forest draws only single-tree operations, and Figure 4 run that way
// at 8 threads passes its audit under every plotted manager (greedy
// alone under -short). Single-tree updates are where openRead once
// wrote the forest's nil sentinel.
func TestForestAllProbZero(t *testing.T) {
	fig := figure(t, 4)
	fig.ForestAllProb = 0
	application := newApp(t, fig)
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 10000; i++ {
		if application.draw(rng).all {
			t.Fatalf("draw %d touched all trees with ForestAllProb 0", i)
		}
	}
	managers := core.FigureManagers
	if testing.Short() {
		managers = []string{"greedy"}
	}
	opts := Options{Window: 60 * time.Millisecond, Warmup: 10 * time.Millisecond, Audit: true}
	for _, mgr := range managers {
		t.Run(mgr, func(t *testing.T) {
			point, err := Run(fig, mgr, 8, opts)
			if err != nil {
				t.Fatal(err)
			}
			if point.Stats.Commits <= 0 {
				t.Fatalf("no commits under %s", mgr)
			}
		})
	}
}

// closeFailApp is an empty workload whose close fails, standing in for
// a kvwal run whose log hit a write or fsync error.
type closeFailApp struct{ closed bool }

var errLogDied = errors.New("log died")

func (a *closeFailApp) seed(*stm.STM, *rand.Rand) error { return nil }
func (a *closeFailApp) draw(*rand.Rand) opDesc          { return opDesc{} }
func (a *closeFailApp) step(*stm.Tx, opDesc) error      { return nil }
func (a *closeFailApp) audit(*stm.STM) error            { return nil }
func (a *closeFailApp) close() error {
	a.closed = true
	return errLogDied
}

// TestRunReturnsCloseError: a point whose app fails to close is an
// error, not a measurement.
func TestRunReturnsCloseError(t *testing.T) {
	application := &closeFailApp{}
	_, err := run(Figure{Structure: "fake"}, "greedy", 1, Options{Window: 10 * time.Millisecond, Warmup: time.Millisecond}, application)
	if !application.closed {
		t.Fatal("run did not close the app")
	}
	if !errors.Is(err, errLogDied) {
		t.Fatalf("run error = %v, want the close error %v", err, errLogDied)
	}
}

// TestKVWALLogsWrites: Figure 9's app logs each write transaction the
// worker loop runs on the engine directly, and nothing else — the
// store arms the capture, so the app has no logging step to forget.
func TestKVWALLogsWrites(t *testing.T) {
	a := newApp(t, figure(t, 9)).(*kvApp)
	defer a.close()
	s := stm.New()
	if err := a.seed(s, rand.New(rand.NewPCG(1, 2))); err != nil {
		t.Fatal(err)
	}
	const writes = 10
	for i := 0; i < writes; i++ {
		for _, op := range []workload.Op{workload.OpInsert, workload.OpLookup} {
			d := opDesc{op: op, key: i, now: a.store.Now()}
			if err := s.Atomically(func(tx *stm.Tx) error { return a.step(tx, d) }); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := a.log.Close(); err != nil {
		t.Fatal(err)
	}
	if got := a.log.Stats().Records(); got != writes {
		t.Fatalf("%d records logged, want one per write transaction (%d)", got, writes)
	}
}

// contextProbe is a workload that watches the harness's schedule from
// inside its attempts. An attempt yields once before it opens anything,
// so every attempt that holds a context gets into step together; then
// it writes probeOpens fresh Vars, owning the first from its first
// write, without yielding again. Fresh Vars conflict with nothing, so
// no manager ever makes an attempt wait. busy counts the attempts
// inside step. ticks counts every write of every attempt: on one
// processor, an owner that sees ticks move between two of its own
// writes was suspended while it owned an object, and another attempt
// ran meanwhile.
type contextProbe struct {
	busy, maxBusy atomic.Int64
	ticks, parked atomic.Int64
}

const probeOpens = 8

func (a *contextProbe) seed(*stm.STM, *rand.Rand) error { return nil }
func (a *contextProbe) draw(*rand.Rand) opDesc          { return opDesc{} }
func (a *contextProbe) audit(*stm.STM) error            { return nil }

func (a *contextProbe) step(tx *stm.Tx, _ opDesc) error {
	n := a.busy.Add(1)
	defer a.busy.Add(-1)
	for m := a.maxBusy.Load(); n > m && !a.maxBusy.CompareAndSwap(m, n); m = a.maxBusy.Load() {
	}
	runtime.Gosched() // owning nothing yet
	var last int64
	for i := 0; i < probeOpens; i++ {
		if err := stm.Write(tx, stm.NewVar(0), i); err != nil {
			return err
		}
		tick := a.ticks.Add(1)
		if i > 0 && tick != last+1 {
			a.parked.Add(1)
		}
		last = tick
	}
	return nil
}

// TestContextModel pins the figures' model (DESIGN.md §Substitutions):
// with 64 workers, at most contexts attempts are in flight at once, and
// the harness never suspends an attempt that owns an object. One
// processor and no collector make any suspension inside step visible:
// the goroutine switches left are the probe's own yield, taken before
// its first open, the harness's queue for a context, and Go's own
// preemption of a goroutine that has held the processor for 10 ms (a
// loaded host can stretch one step that long). The model keeps that
// timeslice, so the test allows one suspension per 10 ms of the run; a
// harness that yields by open count suspends owners thousands of times.
func TestContextModel(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	a := &contextProbe{}
	start := time.Now()
	point, err := run(Figure{Structure: "probe"}, "greedy", 64, Options{Window: 40 * time.Millisecond, Warmup: 10 * time.Millisecond}, a)
	if err != nil {
		t.Fatal(err)
	}
	timeslices := int64(time.Since(start)/(10*time.Millisecond)) + 1
	if point.Stats.Commits == 0 {
		t.Fatal("no attempt committed inside the window")
	}
	if got := a.maxBusy.Load(); got != contexts {
		t.Errorf("%d attempts in flight at most, want the model's %d contexts", got, contexts)
	}
	if got := a.parked.Load(); got > timeslices {
		t.Errorf("%d attempts were suspended while they owned an object; Go's timeslice allows %d", got, timeslices)
	}
}

// userAbortSeed is an empty workload whose seeding ends one
// transaction with a user error and carries on, so the run's totals
// hold one user abort from before the window opened.
type userAbortSeed struct{ steps atomic.Int64 }

var errUser = errors.New("user error")

func (a *userAbortSeed) seed(s *stm.STM, _ *rand.Rand) error {
	if err := s.Atomically(func(*stm.Tx) error { return errUser }); !errors.Is(err, errUser) {
		return fmt.Errorf("seed transaction returned %v, want %v", err, errUser)
	}
	return nil
}
func (a *userAbortSeed) draw(*rand.Rand) opDesc { return opDesc{} }
func (a *userAbortSeed) audit(*stm.STM) error   { return nil }
func (a *userAbortSeed) step(*stm.Tx, opDesc) error {
	a.steps.Add(1)
	return nil
}

// TestRunCountsWindowOnly: a point's engine counters and its latency
// cover the measurement window, the interval of its commits, so the
// seeding pass's user abort is not in them, and the warmup's and the
// wind-down's transactions are not in the latency. Latency keeps the
// transactions that ran wholly inside the window, so it may count a
// few fewer than the window's commits (one straddling each edge per
// worker, more when the harness is descheduled at an edge), never more.
func TestRunCountsWindowOnly(t *testing.T) {
	const threads = 2
	point, err := run(Figure{Structure: "fake", TailWork: 2000}, "greedy", threads, Options{Window: 10 * time.Millisecond, Warmup: 20 * time.Millisecond}, &userAbortSeed{})
	if err != nil {
		t.Fatal(err)
	}
	if point.Stats.Commits == 0 {
		t.Fatal("no commits inside the window")
	}
	if point.Stats.AbortsUser != 0 {
		t.Fatalf("window counts %d user aborts; the only one was in seeding", point.Stats.AbortsUser)
	}
	if n, commits := int64(point.Latency.Count()), point.Stats.Commits; n > commits || 2*n < commits {
		t.Fatalf("latency holds %d transactions, the window %d commits", n, commits)
	}
}

// TestRunZeroWarmup: a zero warmup is honoured, so the window opens as
// the workers start and holds nearly every transaction of the run; a
// 50 ms warmup before the 20 ms window would leave it under a third.
func TestRunZeroWarmup(t *testing.T) {
	a := &userAbortSeed{}
	point, err := run(Figure{Structure: "fake"}, "greedy", 1, Options{Window: 20 * time.Millisecond}, a)
	if err != nil {
		t.Fatal(err)
	}
	steps := a.steps.Load()
	if 2*point.Stats.Commits < steps {
		t.Fatalf("the window holds %d of the run's %d transactions; a zero warmup was not honoured", point.Stats.Commits, steps)
	}
}
