// Rbforest: the paper's Figure 4 workload as a standalone program — a
// forest of red-black trees updated by transactions of wildly varying
// length (one tree, or all fifty in a single transaction). It prints a
// per-manager comparison so the effect of transaction-length variance
// on contention-management policy is visible directly.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"repro/internal/harness"
)

func main() {
	var (
		threads  = flag.Int("threads", 8, "worker threads")
		duration = flag.Duration("duration", 300*time.Millisecond, "measurement window per manager")
		allProb  = flag.Float64("allprob", 0.1, "probability a transaction updates all trees")
	)
	flag.Parse()

	fmt.Printf("red-black forest: %d threads, %.0f%% of updates touch all %d trees\n\n",
		*threads, *allProb*100, 50)
	fig, err := harness.FigureByID(4)
	if err != nil {
		log.Fatal(err)
	}
	fig.ForestAllProb = *allProb
	opts := harness.Options{Window: *duration, Warmup: 50 * time.Millisecond, Audit: true}
	fmt.Printf("%-14s %14s %12s\n", "manager", "commits/sec", "abort rate")
	for _, mgr := range []string{"eruption", "greedy", "aggressive", "backoff", "karma"} {
		point, err := harness.Run(fig, mgr, *threads, opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14s %14.0f %11.1f%%\n", mgr, point.CommitsPerSec, 100*point.Stats.AbortRate())
	}
	fmt.Println("\nstructural audit passed for every tree after every run.")
}
