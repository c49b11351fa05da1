// Adversary: the paper's Section 4 lower-bound instance, animated.
//
// Transactions T0..Ts share objects X1..Xs; Ti is older than Ti-1.
// Everyone grabs their first object at time 0, and at the end of the
// time unit each Ti opens Xi, aborting Ti-1 in a cascade that lets
// only the oldest transaction commit — one commit per round, for a
// makespan of s+1 time units where an optimal off-line list schedule
// (evens, then odds) finishes in 2.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/plot"
	"repro/internal/sched"
)

func main() {
	var (
		s       = flag.Int("s", 4, "number of shared objects")
		m       = flag.Int("m", 2, "ticks per time unit")
		verbose = flag.Bool("v", false, "print every simulator event")
	)
	flag.Parse()

	ins := sched.Adversary(*s, *m)
	fmt.Printf("the Section 4 adversary with s=%d objects (m=%d ticks per unit)\n\n", *s, *m)
	for _, spec := range ins.Specs {
		fmt.Printf("  %s timestamp=%d accesses=%v\n", spec.Label, spec.Timestamp, spec.Accesses)
	}
	fmt.Println()

	var obs sched.Observer
	if *verbose {
		obs = func(tick int, event string, tx, other int) {
			fmt.Printf("  tick %2d: T%d %s", tick, tx, event)
			if other >= 0 {
				fmt.Printf(" [%d]", other)
			}
			fmt.Println()
		}
	}
	res, err := sched.SimulateObserved(ins, core.MustFactory("greedy"), 0, obs)
	if err != nil {
		log.Fatal(err)
	}
	if err := sched.VerifyPendingCommit(res); err != nil {
		log.Fatal(err)
	}

	sys := sched.TaskSystemOf(ins)
	list, err := sys.ListSchedule(sched.EvenOddOrder(*s + 1))
	if err != nil {
		log.Fatal(err)
	}

	// Gantt view of the cascade: '=' runs to commit, 'x' runs into an
	// abort, '.' waits.
	var spans []plot.Span
	for _, act := range res.Actions {
		glyph := byte('=')
		switch act.Kind {
		case sched.ActionAbort:
			glyph = 'x'
		case sched.ActionWait:
			glyph = '.'
		}
		spans = append(spans, plot.Span{
			Row:   ins.Specs[act.Tx].Label,
			Start: act.Start,
			End:   act.End,
			Glyph: glyph,
		})
	}
	if err := plot.Gantt(os.Stdout, "execution (one round per surviving oldest transaction):", spans); err != nil {
		log.Fatal(err)
	}
	fmt.Println()

	fmt.Printf("commit order (tick): %v\n", res.CommitTick)
	fmt.Printf("greedy makespan:     %d time units (one transaction per round)\n", res.Makespan / *m)
	fmt.Printf("optimal list:        %d time units (evens together, then odds)\n", list.Makespan / *m)
	fmt.Printf("ratio %.1f is linear in s; Theorem 9's worst-case bound is s(s+1)+2 = %d\n",
		float64(res.Makespan)/float64(list.Makespan), sched.Bound(*s))
	// Invariant: the Section 4 analysis predicts exactly s+1 rounds for
	// greedy and 2 for the off-line list schedule.
	if got, want := res.Makespan / *m, *s+1; got != want {
		log.Fatalf("invariant violated: greedy makespan = %d time units, want s+1 = %d", got, want)
	}
	if got := list.Makespan / *m; got != 2 {
		log.Fatalf("invariant violated: optimal list makespan = %d time units, want 2", got)
	}
	fmt.Println("whether the quadratic bound is tight is the paper's open problem.")
}
