package sched_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sched"
)

func ExampleSimulate() {
	// The paper's Section 4 adversary with s=2 objects: greedy commits
	// one transaction per round, for a makespan of s+1 = 3 time units.
	ins, err := sched.Adversary(2, 2)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	res, err := sched.Simulate(ins, core.MustFactory("greedy"), 0)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("completed:", res.Completed)
	fmt.Println("makespan (units):", res.Makespan/2)
	fmt.Println("pending-commit holds:", sched.CheckPendingCommit(res) < 0)
	// Output:
	// completed: true
	// makespan (units): 3
	// pending-commit holds: true
}

func ExampleSystem_Optimal() {
	// Two tasks sharing one resource must serialize; a third disjoint
	// task runs in parallel with them.
	sys := &sched.System{
		Resources: 2,
		Tasks: []sched.Task{
			{ID: 0, Length: 2, Need: map[int]float64{0: 1}},
			{ID: 1, Length: 3, Need: map[int]float64{0: 1}},
			{ID: 2, Length: 4, Need: map[int]float64{1: 1}},
		},
	}
	opt, err := sys.Optimal()
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("optimal makespan:", opt.Makespan)
	// Output: optimal makespan: 5
}

func ExampleMeasureRatio() {
	// Theorem 9 on the s=3 adversary: greedy's makespan stays within
	// s(s+1)+2 of the exact optimum.
	ins, err := sched.Adversary(3, 2)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	report, err := sched.MeasureRatio(ins)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("greedy ticks:", report.GreedyMakespan)
	fmt.Println("optimal ticks:", report.OptimalMakespan)
	fmt.Println("within bound:", report.Ratio <= float64(report.Bound))
	// Output:
	// greedy ticks: 8
	// optimal ticks: 4
	// within bound: true
}
