package stm_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/stm"
)

// runGoroutines spreads b.N operations across g goroutines (each op
// receives its worker index) and reports allocations.
func runGoroutines(b *testing.B, g int, op func(w int) error) {
	b.Helper()
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, g)
	b.ReportAllocs()
	b.ResetTimer()
	for w := 0; w < g; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for next.Add(1) <= int64(b.N) {
				if err := op(w); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		b.Fatal(err)
	}
}

// BenchmarkPooledAtomically drives the goroutine-agnostic surface over
// one pooled STM — the serving-shape workload the session redesign
// targets (a goroutine per request, not pinned workers) — at 64 and
// 128 goroutines, the range past the paper's 32-thread sweeps that the
// striped commit protocol opens up. Two flavours per width: "disjoint"
// gives each goroutine its own counter (writer commits land on
// distinct stripes and proceed in parallel — the scaling case the old
// global commit lock serialized); "shared" has every goroutine hammer
// one counter (the full conflict path at maximal contention).
func BenchmarkPooledAtomically(b *testing.B) {
	run := func(b *testing.B, goroutines int, vars []*stm.Var[int]) {
		b.Helper()
		world := stm.New(stm.WithManagerFactory(func() stm.Manager { return politeManager{} }))
		runGoroutines(b, goroutines, func(w int) error {
			v := vars[w%len(vars)]
			return world.Atomically(func(tx *stm.Tx) error {
				return stm.Update(tx, v, func(n int) int { return n + 1 })
			})
		})
		b.StopTimer()
		sum := 0
		for _, v := range vars {
			sum += v.Peek()
		}
		if sum != b.N {
			b.Fatalf("sum of counters = %d, want %d", sum, b.N)
		}
	}
	for _, g := range []int{64, 128} {
		g := g
		b.Run(fmt.Sprintf("disjoint/g%d", g), func(b *testing.B) {
			vars := make([]*stm.Var[int], g)
			for i := range vars {
				vars[i] = stm.NewVar(0)
			}
			run(b, g, vars)
		})
		b.Run(fmt.Sprintf("shared/g%d", g), func(b *testing.B) {
			run(b, g, []*stm.Var[int]{stm.NewVar(0)})
		})
	}
}

// BenchmarkTypedRead measures the typed read path on the pooled
// surface: with descriptor and read-set recycling, a steady-state
// read-only transaction performs zero heap allocations.
func BenchmarkTypedRead(b *testing.B) {
	world := stm.New(stm.WithManagerFactory(func() stm.Manager { return politeManager{} }))
	vars := make([]*stm.Var[int], 16)
	for i := range vars {
		vars[i] = stm.NewVar(i)
	}
	b.ReportAllocs()
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
