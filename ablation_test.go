package repro_test

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/core"
	"repro/internal/intset"
	"repro/internal/stm"
)

// runListOps drives b.N single-threaded list operations on a world
// configured with the given options — the ablation baseline where only
// the STM knob under study varies.
func runListOps(b *testing.B, opts ...stm.Option) {
	b.Helper()
	opts = append(opts, stm.WithManagerFactory(core.MustFactory("greedy")))
	world := stm.New(opts...)
	list := intset.NewList()
	for key := 0; key < 256; key += 2 {
		key := key
		if err := world.Atomically(func(tx *stm.Tx) error {
			_, err := list.Insert(tx, key)
			return err
		}); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewPCG(1, 2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := int(rng.Int64N(256))
		insert := rng.Int64N(2) == 0
		if err := world.Atomically(func(tx *stm.Tx) error {
			var err error
			if insert {
				_, err = list.Insert(tx, key)
			} else {
				_, err = list.Remove(tx, key)
			}
			return err
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationValidation quantifies the commit-clock validation
// shortcut (DESIGN.md design choice): with the clock, a quiescent
// transaction validates in O(1); without it every open rescans the
// read set, making a list traversal quadratic.
func BenchmarkAblationValidation(b *testing.B) {
	b.Run("commit-clock", func(b *testing.B) { runListOps(b) })
	b.Run("full-rescan", func(b *testing.B) { runListOps(b, stm.WithFullValidation()) })
}

// BenchmarkLazyVsEager compares the paper's eager, open-time conflict
// detection (with the greedy manager) against Harris–Fraser-style
// commit-time detection on the contended list (E12, after the paper's
// Section 6 discussion). Lazy transactions never consult a contention
// manager; their losers discover conflicts only after executing in
// full, so aborts/commit (reported) measures the wasted work.
func BenchmarkLazyVsEager(b *testing.B) {
	b.Run("eager-greedy", func(b *testing.B) {
		world := stm.New(stm.WithInterleavePeriod(4), stm.WithManagerFactory(core.MustFactory("greedy")))
		list := intset.NewList()
		seedList(b, world, list)
		benchContendedList(b, world, list)
	})
	b.Run("lazy", func(b *testing.B) {
		world := stm.New(stm.WithInterleavePeriod(4), stm.WithManagerFactory(core.MustFactory("greedy")), stm.WithLazyConflicts())
		list := intset.NewList()
		seedList(b, world, list)
		benchContendedList(b, world, list)
	})
}

func seedList(b *testing.B, world *stm.STM, list *intset.List) {
	b.Helper()
	for key := 0; key < 256; key += 2 {
		key := key
		if err := world.Atomically(func(tx *stm.Tx) error {
			_, err := list.Insert(tx, key)
			return err
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationInterleave is an engine ablation of
// stm.WithInterleavePeriod, the yield every n-th open that tests use
// to force attempts to overlap: the period trades single-thread speed
// for cross-transaction overlap, and contention (aborts/commit,
// reported) rises as it shrinks. It is not the figures' setting: they
// run under the harness's context model, which never yields inside an
// attempt (DESIGN.md §Substitutions).
func BenchmarkAblationInterleave(b *testing.B) {
	for _, period := range []int{0, 16, 4, 1} {
		period := period
		name := fmt.Sprintf("period=%d", period)
		if period == 0 {
			name = "period=off"
		}
		b.Run(name, func(b *testing.B) {
			world := stm.New(stm.WithInterleavePeriod(period), stm.WithManagerFactory(core.MustFactory("greedy")))
			list := intset.NewList()
			seedList(b, world, list)
			benchContendedList(b, world, list)
		})
	}
}

// benchContendedList spreads b.N list updates over 8 goroutines on
// the pooled API.
func benchContendedList(b *testing.B, world *stm.STM, list *intset.List) {
	b.Helper()
	var next = make(chan int)
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		rng := rand.New(rand.NewPCG(uint64(w)+7, 13))
		go func() {
			for range next {
				key := int(rng.Int64N(256))
				insert := rng.Int64N(2) == 0
				err := world.Atomically(func(tx *stm.Tx) error {
					var err error
					if insert {
						_, err = list.Insert(tx, key)
					} else {
						_, err = list.Remove(tx, key)
					}
					return err
				})
				if err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next <- i
	}
	close(next)
	b.StopTimer()
	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			b.Fatal(err)
		}
	}
	stats := world.TotalStats()
	if stats.Commits > 0 {
		b.ReportMetric(float64(stats.Aborts)/float64(stats.Commits), "aborts/commit")
	}
}
