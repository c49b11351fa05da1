// Command makespan runs the paper's theory experiments:
//
//	adversary — the Section 4 worst-case instance: greedy needs s+1
//	            time units where an optimal list schedule needs 2;
//	ratio     — Theorem 9: greedy's makespan on random instances
//	            against the exact off-line optimum, checked against
//	            the s(s+1)+2 bound;
//	bounded   — Theorem 1 on the real STM: n simultaneous
//	            transactions all commit, with per-transaction abort
//	            counts;
//	pending   — the pending-commit property: greedy satisfies it,
//	            always-wait deadlocks and the trace checker reports
//	            the violation;
//	lemma7    — numeric verification of the Garey–Graham labelling
//	            lemma on random edge partitions of G(m,s);
//	halted    — Section 6: greedy-with-timeout recovers from a halted
//	            transaction, plain greedy stalls;
//	sequences — the open problem of threads running chains of
//	            transactions: makespan vs a resource-work lower bound;
//	randomized — the open problem of randomized managers: completion
//	            time distribution of the coin flip on the instances
//	            that defeat the deterministic extremes;
//	trace     — event trace of the adversary under greedy (debugging
//	            aid and a readable rendition of the paper's cascade).
//
// The simulated experiments run internal/core's managers, the ones the
// STM runs. The command exits 1 when one of the theory's claims fails:
// the adversary's s+1 units for greedy against 2 for the even–odd list
// schedule, Theorem 9's bound, completion with the pending-commit
// property, or greedy-timeout's recovery. A flag value no experiment
// can run with (-s below 1, -m below 2, -trials or -n below 1, an
// unknown -exp) exits 2 before anything runs.
//
// Usage:
//
//	makespan -exp adversary -s 8
//	makespan -exp ratio -trials 20
//	makespan -exp all
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/liveness"
	"repro/internal/sched"
	"repro/internal/stm"
)

// timid is the always-wait manager: queue-on-block with its timeout
// off.
func timid() stm.Manager { return &core.QueueOnBlock{} }

// simulated is one manager the simulator runs, under its table name.
type simulated struct {
	name string
	mgr  stm.ManagerFactory
}

func registry(name string) simulated { return simulated{name, core.MustFactory(name)} }

// experiments are the -exp values besides "all", in the order -exp all
// runs them.
var experiments = []string{"adversary", "ratio", "bounded", "pending", "lemma7", "halted", "sequences", "randomized", "trace"}

func main() {
	var (
		exp    = flag.String("exp", "all", "experiment: "+strings.Join(experiments, "|")+"|all")
		s      = flag.Int("s", 8, "number of shared objects (adversary, trace)")
		m      = flag.Int("m", 2, "ticks per time unit")
		trials = flag.Int("trials", 10, "random trials per parameter point (ratio, lemma7)")
		n      = flag.Int("n", 8, "concurrent transactions (bounded)")
		seed   = flag.Uint64("seed", 42, "random seed")
	)
	flag.Parse()
	if err := checkFlags(*exp, *s, *m, *trials, *n); err != nil {
		fmt.Fprintln(os.Stderr, "makespan:", err)
		flag.Usage()
		os.Exit(2)
	}

	run := func(name string, fn func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		fmt.Printf("== %s ==\n", name)
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "makespan: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	run("adversary", func() error { return adversary(*s, *m) })
	run("ratio", func() error { return ratio(*seed, *trials) })
	run("bounded", func() error { return bounded(*n, *seed) })
	run("pending", func() error { return pending(*m) })
	run("lemma7", func() error { return lemma7(*seed, *trials) })
	run("halted", func() error { return halted() })
	run("sequences", func() error { return sequences() })
	run("randomized", func() error { return randomized(*trials) })
	run("trace", func() error { return trace(*s, *m) })
}

// checkFlags rejects flag values no experiment can run with: the
// adversary needs at least one object and two ticks per time unit
// ("time 0" and "time 1-ε" are distinct ticks), and the counts must be
// positive.
func checkFlags(exp string, s, m, trials, n int) error {
	if exp != "all" && !slices.Contains(experiments, exp) {
		return fmt.Errorf("unknown -exp %q", exp)
	}
	if s < 1 {
		return fmt.Errorf("bad -s %d: must be at least 1", s)
	}
	if m < 2 {
		return fmt.Errorf("bad -m %d: must be at least 2", m)
	}
	if trials < 1 {
		return fmt.Errorf("bad -trials %d: must be positive", trials)
	}
	if n < 1 {
		return fmt.Errorf("bad -n %d: must be positive", n)
	}
	return nil
}

func adversary(s, m int) error {
	fmt.Printf("Section 4 adversarial instance, s=%d objects, m=%d ticks/unit\n", s, m)
	fmt.Printf("%-6s %-10s %-10s %-8s %-8s\n", "s", "greedy", "optimal", "ratio", "bound")
	for _, si := range []int{1, 2, 4, s} {
		ins := sched.Adversary(si, m)
		res, err := sched.Simulate(ins, core.MustFactory("greedy"), 0)
		if err != nil {
			return err
		}
		sys := sched.TaskSystemOf(ins)
		list, err := sys.ListSchedule(sched.EvenOddOrder(si + 1))
		if err != nil {
			return err
		}
		ratio := float64(res.Makespan) / float64(list.Makespan)
		fmt.Printf("%-6d %-10s %-10s %-8.2f %-8d\n",
			si,
			fmt.Sprintf("%d units", res.Makespan/m),
			fmt.Sprintf("%d units", list.Makespan/m),
			ratio, sched.Bound(si))
		if err := sched.VerifyPendingCommit(res); err != nil {
			return err
		}
		if !res.Completed || res.Makespan != (si+1)*m {
			return fmt.Errorf("greedy's makespan at s=%d is %d ticks, want s+1 = %d units", si, res.Makespan, si+1)
		}
		if list.Makespan != 2*m {
			return fmt.Errorf("the even-odd list schedule at s=%d is %d ticks, want 2 units", si, list.Makespan)
		}
	}
	fmt.Println("greedy = s+1 units, optimal = 2 units: the paper's separation, linear in s.")
	return nil
}

func ratio(seed uint64, trials int) error {
	fmt.Println("Theorem 9: greedy vs exact optimal on random instances")
	reports, worst, err := sched.RatioSweep(seed, []int{3, 4, 5, 6}, []int{2, 3, 4}, trials)
	if err != nil {
		return err
	}
	exceeded := 0
	for _, r := range reports {
		if r.Ratio > float64(r.Bound) {
			exceeded++
			fmt.Printf("VIOLATION: %v\n", r)
		}
	}
	fmt.Printf("instances: %d, worst ratio: %.2f, bound violations: %d\n", len(reports), worst, exceeded)
	if exceeded > 0 {
		return fmt.Errorf("Theorem 9 bound violated on %d instances", exceeded)
	}
	fmt.Println("all ratios within s(s+1)+2, far below it in fact (the bound's tightness is open).")
	return nil
}

func bounded(n int, seed uint64) error {
	fmt.Printf("Theorem 1 on the real STM: %d simultaneous transactions over 6 objects\n", n)
	fmt.Printf("%-16s %-10s %-12s %s\n", "manager", "max-aborts", "elapsed", "aborts per tx")
	// Aggressive is excluded: it can livelock here (see -exp pending).
	for _, mgr := range []string{"greedy", "greedy-timeout", "karma", "timestamp"} {
		res, err := liveness.BoundedCommit(mgr, n, 6, 3, seed)
		if err != nil {
			return err
		}
		fmt.Printf("%-16s %-10d %-12s %v\n", mgr, res.MaxAborts, res.Elapsed.Round(time.Microsecond), res.AbortsPerTx)
	}
	fmt.Println("every transaction committed; under greedy the oldest is never aborted.")
	return nil
}

func pending(m int) error {
	managers := []simulated{registry("greedy"), {"timid", timid}, registry("aggressive"), registry("karma")}
	var failed []string
	report := func(instance, title string, ins *sched.Instance) error {
		fmt.Println(title)
		for _, sm := range managers {
			res, err := sched.Simulate(ins, sm.mgr, 500)
			if err != nil {
				return err
			}
			status := "completed"
			if !res.Completed {
				status = "DID NOT COMPLETE (deadlock/livelock)"
			}
			pc := "holds"
			t := sched.CheckPendingCommit(res)
			if t >= 0 {
				pc = fmt.Sprintf("violated at tick %d", t)
			}
			fmt.Printf("  %-12s %-36s pending-commit: %s\n", sm.name, status, pc)
			if sm.name == "greedy" && (!res.Completed || t >= 0) {
				failed = append(failed, instance)
			}
		}
		return nil
	}
	if err := report("cyclic-conflict", "cyclic-conflict instance (deadlocks always-wait):", sched.CycleInstance(m)); err != nil {
		return err
	}
	if err := report("same-object", "same-object instance (livelocks always-abort):", sched.LivelockInstance(m)); err != nil {
		return err
	}
	if len(failed) > 0 {
		return fmt.Errorf("greedy failed to complete with the pending-commit property on the %v instance(s)", failed)
	}
	return nil
}

func lemma7(seed uint64, trials int) error {
	fmt.Println("Lemma 7: random edge partitions of G(m,s) into s spanning subgraphs")
	fmt.Printf("%-8s %-8s %-12s %-10s\n", "m", "s", "min of max", "required")
	for _, tc := range []struct{ m, s int }{{1, 2}, {2, 2}, {1, 3}, {2, 3}, {3, 2}} {
		g := graph.GMS(tc.m, tc.s)
		minOfMax := -1.0
		for trial := 0; trial < trials; trial++ {
			parts := randomPartition(g, tc.s, seed+uint64(trial))
			maxScore := 0.0
			for _, part := range parts {
				if sc, _ := part.Score(); sc > maxScore {
					maxScore = sc
				}
			}
			if minOfMax < 0 || maxScore < minOfMax {
				minOfMax = maxScore
			}
		}
		fmt.Printf("%-8d %-8d %-12.1f %-10d\n", tc.m, tc.s, minOfMax, tc.m)
		if minOfMax < float64(tc.m) {
			return fmt.Errorf("Lemma 7 violated for G(%d,%d)", tc.m, tc.s)
		}
	}
	fmt.Println("max_i S(H_i) >= m on every sampled partition, as Lemma 7 requires.")
	return nil
}

func randomPartition(g *graph.Graph, k int, seed uint64) []*graph.Graph {
	parts := make([]*graph.Graph, k)
	for i := range parts {
		parts[i] = graph.New(g.N)
	}
	state := seed
	next := func() uint64 { // splitmix64
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for _, e := range g.Edges {
		i := int(next() % uint64(k))
		parts[i].Edges = append(parts[i].Edges, e)
	}
	return parts
}

func halted() error {
	fmt.Println("Section 6: recovery from a halted (crashed) high-priority transaction")
	fmt.Printf("%-16s %-10s %-12s %s\n", "manager", "recovered", "elapsed", "survivor commits")
	recovered := false
	for _, mgr := range []string{"greedy-timeout", "aggressive", "karma", "greedy"} {
		deadline := 3 * time.Second
		if mgr == "greedy" {
			deadline = 300 * time.Millisecond // it will never recover; keep the wait short
		}
		res, err := liveness.HaltedRecovery(mgr, 2, 20, deadline)
		if err != nil {
			return err
		}
		fmt.Printf("%-16s %-10v %-12s %d\n", mgr, res.Recovered, res.Elapsed.Round(time.Millisecond), res.SurvivorCommits)
		if mgr == "greedy-timeout" {
			recovered = res.Recovered
		}
	}
	fmt.Println("plain greedy waits on the corpse forever (Rule 2); the timeout extension recovers.")
	if !recovered {
		return fmt.Errorf("greedy-timeout did not recover from the halted transaction")
	}
	return nil
}

func sequences() error {
	fmt.Println("open problem (Section 6): threads executing sequences of transactions")
	fmt.Printf("%-12s %-8s %-10s %-10s %-10s %-8s\n", "policy", "threads", "per-thread", "makespan", "lower-bd", "ratio")
	for _, shape := range []struct{ threads, per, s int }{{2, 4, 3}, {4, 4, 4}, {8, 3, 4}} {
		ins := sched.SequenceInstance(shape.threads, shape.per, shape.s, 3, 2)
		for _, sm := range []simulated{registry("greedy"), registry("karma"), registry("aggressive")} {
			report, err := sched.MeasureSequences(ins, sm.mgr)
			if err != nil {
				return err
			}
			status := fmt.Sprintf("%.2f", report.Ratio)
			if !report.Completed {
				status = "stuck"
			}
			fmt.Printf("%-12s %-8d %-10d %-10d %-10d %-8s\n",
				sm.name, shape.threads, shape.per, report.Makespan, report.LowerBound, status)
		}
	}
	fmt.Println("ratios are against a resource-work lower bound; a tight analysis remains open.")
	return nil
}

func randomized(trials int) error {
	fmt.Println("open problem: randomized contention management, completion-time distribution")
	fmt.Printf("%-22s %-10s %-8s %-8s %-8s %-8s\n", "instance", "completed", "p50", "p90", "p99", "worst")
	for _, tc := range []struct {
		name string
		ins  *sched.Instance
	}{
		{"cycle (kills timid)", sched.CycleInstance(2)},
		{"same-object (kills aggressive)", sched.LivelockInstance(2)},
	} {
		study, err := sched.StudyRandomized(tc.ins, 0.5, uint(trials*20), 100_000)
		if err != nil {
			return err
		}
		fmt.Printf("%-30s %9.0f%% %-8d %-8d %-8d %-8d\n", tc.name,
			100*study.CompletedFraction, study.P50, study.P90, study.P99, study.Worst)
	}
	fmt.Println("the coin flip completes with high probability where each deterministic")
	fmt.Println("extreme fails outright; its tail is unbounded, which is why the paper")
	fmt.Println("asks for a provable high-probability bound (open).")
	return nil
}

func trace(s, m int) error {
	if s > 4 {
		s = 4 // keep the trace readable
	}
	fmt.Printf("greedy on the adversary, s=%d, m=%d — the paper's cascade, event by event\n", s, m)
	ins := sched.Adversary(s, m)
	res, err := sched.SimulateObserved(ins, core.MustFactory("greedy"), 0, func(tick int, event string, tx, other int) {
		if other >= 0 {
			fmt.Printf("  tick %2d: T%d %s (object/enemy %d)\n", tick, tx, event, other)
			return
		}
		fmt.Printf("  tick %2d: T%d %s\n", tick, tx, event)
	})
	if err != nil {
		return err
	}
	fmt.Printf("makespan: %d ticks = %d time units (s+1 = %d)\n", res.Makespan, res.Makespan/m, s+1)
	return nil
}
