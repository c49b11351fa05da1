package repro_test

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/liveness"
	"repro/internal/sched"
	"repro/internal/stm"
)

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

// BenchmarkHarnessPoint measures Figures 1–4 through harness.Run, the
// figure driver's own path: one sub-benchmark per (figure, plotted
// manager), each iteration one short 8-thread point. It reports the
// points' mean committed transactions per second and the aborts per
// commit over all iterations.
func BenchmarkHarnessPoint(b *testing.B) {
	opts := harness.Options{Window: 20 * time.Millisecond, Warmup: 5 * time.Millisecond}
	for id := 1; id <= 4; id++ {
		fig, err := harness.FigureByID(id)
		if err != nil {
			b.Fatal(err)
		}
		for _, mgr := range core.FigureManagers {
			b.Run(fmt.Sprintf("figure%d/%s", id, mgr), func(b *testing.B) {
				var rate float64
				var commits, aborts int64
				for i := 0; i < b.N; i++ {
					point, err := harness.Run(fig, mgr, 8, opts)
					if err != nil {
						b.Fatal(err)
					}
					rate += point.CommitsPerSec
					commits += point.Stats.Commits
					aborts += point.Stats.Aborts
				}
				b.ReportMetric(rate/float64(b.N), "commits/s")
				if commits > 0 {
					b.ReportMetric(float64(aborts)/float64(commits), "aborts/commit")
				}
			})
		}
	}
}
