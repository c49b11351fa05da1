// Lazydetect: eager vs lazy conflict detection, the paper's Section 6
// contrast. The same contended-counter workload runs twice — once on
// the eager STM (conflicts at open time, greedy contention manager
// arbitrating) and once on a Harris–Fraser-style lazy STM (conflicts
// at commit time, no contention manager involved) — and reports
// throughput, abort rate, and opens per attempt: how far an attempt
// gets before it commits or is thrown away.
package main

import (
	"flag"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/stm"
)

func main() {
	var (
		workers  = flag.Int("workers", 8, "concurrent workers")
		duration = flag.Duration("duration", 300*time.Millisecond, "run time per mode")
		objects  = flag.Int("objects", 4, "shared objects per transaction")
	)
	flag.Parse()

	fmt.Printf("%d workers, %d objects per transaction, %v per mode\n\n", *workers, *objects, *duration)
	fmt.Printf("%-14s %14s %12s %16s\n", "mode", "commits/sec", "abort rate", "opens/attempt")
	for _, mode := range []string{"eager-greedy", "lazy"} {
		opts := []stm.Option{
			stm.WithInterleavePeriod(2),
			stm.WithManagerFactory(core.MustFactory("greedy")),
		}
		if mode == "lazy" {
			opts = append(opts, stm.WithLazyConflicts())
		}
		world := stm.New(opts...)
		objs := make([]*stm.Var[int], *objects)
		for i := range objs {
			objs[i] = stm.NewVar(0)
		}

		var stop atomic.Bool
		var commits atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < *workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !stop.Load() {
					err := world.Atomically(func(tx *stm.Tx) error {
						if stop.Load() {
							return nil // commit empty and check again
						}
						for _, obj := range objs {
							if err := stm.Update(tx, obj, func(v int) int { return v + 1 }); err != nil {
								return err
							}
						}
						return nil
					})
					if err != nil {
						log.Fatalf("%s worker: %v", mode, err)
					}
					commits.Add(1)
				}
			}()
		}
		start := time.Now()
		time.Sleep(*duration)
		stop.Store(true)
		wg.Wait()
		elapsed := time.Since(start)

		// Invariant: every committed transaction incremented every
		// object once, so all objects must agree exactly.
		for i, obj := range objs {
			if got, want := obj.Peek(), objs[0].Peek(); got != want {
				log.Fatalf("%s: invariant violated: object %d = %d, object 0 = %d", mode, i, got, want)
			}
		}

		stats := world.TotalStats()
		fmt.Printf("%-14s %14.0f %11.1f%% %16.1f\n",
			mode, float64(commits.Load())/elapsed.Seconds(), 100*stats.AbortRate(),
			float64(stats.Opens)/float64(stats.Commits+stats.Aborts))
	}
	fmt.Println("\nlazy losers only learn they are doomed at commit, after doing all their")
	fmt.Println("opens; eager losers are stopped (or saved by the manager) at first conflict.")
}
