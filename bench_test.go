package repro_test

import (
	"errors"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/intset"
	"repro/internal/liveness"
	"repro/internal/sched"
	"repro/internal/stm"
)

// benchThreads is the worker count for the figure benchmarks: enough
// for real contention without drowning a small CI machine.
const benchThreads = 8

// runFixedOps measures b.N set operations spread across benchThreads
// workers on the given structure under the given manager — a
// fixed-work (rather than fixed-time) form of a figure point, so ns/op
// is comparable across managers. It keeps its own schedule, a yield
// every 4 opens, not the figures' context model.
func runFixedOps(b *testing.B, set intset.Set, manager string, tailWork int, forestAllProb float64) {
	b.Helper()
	factory, err := core.Factory(manager)
	if err != nil {
		b.Fatal(err)
	}
	world := stm.New(stm.WithInterleavePeriod(4), stm.WithManagerFactory(factory))
	for key := 0; key < 256; key += 2 {
		key := key
		if err := world.Atomically(func(tx *stm.Tx) error {
			_, err := set.Insert(tx, key)
			return err
		}); err != nil {
			b.Fatal(err)
		}
	}
	forest, isForest := set.(*intset.RBForest)

	var next atomic.Int64
	var giveUps atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, benchThreads)
	b.ResetTimer()
	for w := 0; w < benchThreads; w++ {
		rng := rand.New(rand.NewPCG(uint64(w)+1, 0xbe7c))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for next.Add(1) <= int64(b.N) {
				key := int(rng.Int64N(256))
				insert := rng.Int64N(2) == 0
				all := isForest && rng.Float64() < forestAllProb
				tree := 0
				if isForest {
					tree = int(rng.Int64N(int64(forest.Size())))
				}
				attempts := 0
				err := world.Atomically(func(tx *stm.Tx) error {
					// Livelock fuse: an always-abort manager can
					// ping-pong workers forever; after a bound the
					// operation is abandoned and counted.
					//stm:impure(livelock fuse: the cross-retry attempt count is what bounds the ping-pong)
					if attempts++; attempts > 2_000 {
						return errGiveUp
					}
					var err error
					switch {
					case all && insert:
						_, err = forest.InsertAll(tx, key)
					case all:
						_, err = forest.RemoveAll(tx, key)
					case isForest && insert:
						_, err = forest.InsertOne(tx, tree, key)
					case isForest:
						_, err = forest.RemoveOne(tx, tree, key)
					case insert:
						_, err = set.Insert(tx, key)
					default:
						_, err = set.Remove(tx, key)
					}
					if err == nil && tailWork > 0 {
						spinWork(tailWork)
					}
					return err
				})
				if errors.Is(err, errGiveUp) {
					giveUps.Add(1)
					continue
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	close(errs)
	for err := range errs {
		b.Fatal(err)
	}
	stats := world.TotalStats()
	if stats.Commits > 0 {
		b.ReportMetric(float64(stats.Aborts)/float64(stats.Commits), "aborts/commit")
	}
	if g := giveUps.Load(); g > 0 {
		b.ReportMetric(float64(g), "livelock-giveups")
	}
}

// errGiveUp marks an operation abandoned by the livelock fuse.
var errGiveUp = errors.New("bench: livelock fuse blew")

var spinSink atomic.Uint64

func spinWork(n int) {
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink.Store(x)
}

// benchFigure runs one sub-benchmark per manager, each on a fresh set
// from newSet.
func benchFigure(b *testing.B, newSet func() intset.Set, tailWork int, forestAllProb float64, managers []string) {
	b.Helper()
	for _, mgr := range managers {
		mgr := mgr
		b.Run(mgr, func(b *testing.B) {
			runFixedOps(b, newSet(), mgr, tailWork, forestAllProb)
		})
	}
}

// BenchmarkFigure1List is the paper's Figure 1: the sorted-list
// application under heavy contention, one sub-benchmark per plotted
// manager.
func BenchmarkFigure1List(b *testing.B) {
	benchFigure(b, func() intset.Set { return intset.NewList() }, 0, 0, core.FigureManagers)
}

// BenchmarkFigure2Skiplist is Figure 2: the skiplist application.
func BenchmarkFigure2Skiplist(b *testing.B) {
	benchFigure(b, func() intset.Set { return intset.NewSkipList() }, 0, 0, core.FigureManagers)
}

// BenchmarkFigure3RedBlack is Figure 3: the red-black tree with an
// uncontended computation at the end of each transaction (the paper's
// low-contention scenario).
func BenchmarkFigure3RedBlack(b *testing.B) {
	benchFigure(b, func() intset.Set { return intset.NewRBTree() }, 4000, 0, core.FigureManagers)
}

// BenchmarkFigure4Forest is Figure 4: the red-black forest with
// one-or-all-trees updates (irregular transaction lengths, intensive
// contention). Aggressive is excluded: it livelocks on the forest's
// long transactions (E10), and under fixed work every operation burns
// the whole livelock fuse; the duration-bounded harness
// (cmd/stmbench) measures it honestly instead.
func BenchmarkFigure4Forest(b *testing.B) {
	newForest := func() intset.Set { return intset.NewRBForest(intset.DefaultForestSize) }
	benchFigure(b, newForest, 0, 0.1, []string{"eruption", "greedy", "backoff", "karma"})
}

// BenchmarkAdversarialMakespan simulates the Section 4 worst case for
// greedy (E5).
func BenchmarkAdversarialMakespan(b *testing.B) {
	ins := sched.Adversary(8, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sched.Simulate(ins, core.MustFactory("greedy"), 0)
		if err != nil {
			b.Fatal(err)
		}
		if res.Makespan != 18 {
			b.Fatalf("makespan = %d, want 18", res.Makespan)
		}
	}
}

// BenchmarkCompetitiveRatio measures a full Theorem 9 data point:
// greedy simulation plus exact optimal scheduling (E6).
func BenchmarkCompetitiveRatio(b *testing.B) {
	rng := rand.New(rand.NewPCG(99, 101))
	ins := sched.RandomInstance(rng, 5, 3, 3, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report, err := sched.MeasureRatio(ins)
		if err != nil {
			b.Fatal(err)
		}
		if report.Ratio > float64(report.Bound) {
			b.Fatalf("bound violated: %v", report)
		}
	}
}

// BenchmarkBoundedCommit runs Theorem 1's experiment on the real STM
// (E7).
func BenchmarkBoundedCommit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := liveness.BoundedCommit("greedy", 6, 4, 3, uint64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLemma7 scores a random partition of G(2,2) (E8).
func BenchmarkLemma7(b *testing.B) {
	g := graph.GMS(2, 2)
	for i := 0; i < b.N; i++ {
		if score, _ := g.Score(); score <= 0 {
			b.Fatal("degenerate score")
		}
	}
}

// BenchmarkHaltedRecovery measures the Section 6 recovery path:
// greedy-timeout unblocking survivors stuck behind a halted
// transaction (E9).
func BenchmarkHaltedRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := liveness.HaltedRecovery("greedy-timeout", 1, 3, 10*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Recovered {
			b.Fatal("greedy-timeout failed to recover")
		}
	}
}

// BenchmarkSTMWriteTx measures a minimal single-object write
// transaction (substrate micro-benchmark).
func BenchmarkSTMWriteTx(b *testing.B) {
	world := stm.New(stm.WithManagerFactory(core.MustFactory("greedy")))
	counter := stm.NewVar(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := world.Atomically(func(tx *stm.Tx) error {
			return stm.Update(tx, counter, func(v int) int { return v + 1 })
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSTMReadTx measures a read-only transaction over 16 objects
// (validation-path micro-benchmark).
func BenchmarkSTMReadTx(b *testing.B) {
	world := stm.New(stm.WithManagerFactory(core.MustFactory("greedy")))
	vars := make([]*stm.Var[int], 16)
	for i := range vars {
		vars[i] = stm.NewVar(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := world.Atomically(func(tx *stm.Tx) error {
			sum := 0
			for _, v := range vars {
				n, err := stm.Read(tx, v)
				if err != nil {
					return err
				}
				sum += n
			}
			if sum != 120 {
				b.Errorf("sum = %d", sum)
			}
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHarnessPoint measures one full harness point end to end
// (short window), validating that the figure pipeline itself is sound
// under the benchmark runner.
func BenchmarkHarnessPoint(b *testing.B) {
	fig, err := harness.FigureByID(3)
	if err != nil {
		b.Fatal(err)
	}
	opts := harness.Options{Window: 20 * time.Millisecond, Warmup: 5 * time.Millisecond}
	for i := 0; i < b.N; i++ {
		point, err := harness.Run(fig, "greedy", 4, opts)
		if err != nil {
			b.Fatal(err)
		}
		if point.Stats.Commits <= 0 {
			b.Fatal("no commits")
		}
	}
}
