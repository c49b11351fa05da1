// Package sched implements the scheduling-theory half of the paper:
// the Garey–Graham model of tasks sharing limited resources, list
// schedulers, an exact optimal scheduler for small instances, and a
// discrete-time simulator of transactions under the on-line contention
// managers of internal/core. Together they reproduce the Section 4 results:
// the adversarial instance on which greedy needs makespan s+1 while an
// optimal (list) schedule needs 2, the pending-commit property, and
// the competitive bound makespan(greedy) <= (s(s+1)+2) * optimal
// (Theorem 9).
//
// Time is discrete: the paper divides each time unit into m ticks and
// observes (after Garey and Graham) that tasks may be assumed to start
// and stop on ticks.
package sched

import (
	"fmt"
	"math"
)

// Task is one non-preemptable task of a Garey–Graham task system: it
// runs for Length ticks and requires Need[r] units of each resource r
// (0 <= Need[r] <= 1, with total usage per resource capped at 1 at any
// instant) for its entire execution.
type Task struct {
	// ID identifies the task; IDs are the indices into System.Tasks.
	ID int
	// Length is the task's duration in ticks; must be positive.
	Length int
	// Need maps resource index to the units of that resource the task
	// occupies while running. Absent resources are unused. A
	// transactional update maps to 1 unit; a read to 1/n.
	Need map[int]float64
}

// resourceEps guards float comparisons of resource sums.
const resourceEps = 1e-9

// System is a task system: n tasks sharing s unit-capacity resources,
// with (as in the paper) at least as many processors as tasks, so only
// the resources constrain parallelism.
type System struct {
	// Tasks are the tasks, indexed by ID.
	Tasks []Task
	// Resources is s, the number of shared resources.
	Resources int
}

// Validate checks the system's well-formedness: positive lengths,
// resource indices in range, needs within [0,1].
func (sys *System) Validate() error {
	for i, task := range sys.Tasks {
		if task.ID != i {
			return fmt.Errorf("sched: task %d has ID %d; IDs must equal indices", i, task.ID)
		}
		if task.Length <= 0 {
			return fmt.Errorf("sched: task %d has non-positive length %d", i, task.Length)
		}
		for r, need := range task.Need {
			if r < 0 || r >= sys.Resources {
				return fmt.Errorf("sched: task %d uses resource %d out of range [0,%d)", i, r, sys.Resources)
			}
			if need < 0 || need > 1+resourceEps {
				return fmt.Errorf("sched: task %d needs %g of resource %d; want [0,1]", i, need, r)
			}
		}
	}
	return nil
}

// TotalWork returns the sum of task lengths in ticks (a trivial lower
// bound on n*makespan, and on makespan when a single resource is fully
// used by every task).
func (sys *System) TotalWork() int {
	total := 0
	for _, task := range sys.Tasks {
		total += task.Length
	}
	return total
}

// LongestTask returns the maximum task length (a lower bound on any
// makespan).
func (sys *System) LongestTask() int {
	longest := 0
	for _, task := range sys.Tasks {
		if task.Length > longest {
			longest = task.Length
		}
	}
	return longest
}

// ResourceWorkBound returns the largest, over resources, of the total
// resource-time demand (sum of need*length), which lower-bounds any
// makespan since a resource supplies at most one unit per tick.
func (sys *System) ResourceWorkBound() int {
	bound := 0.0
	for r := 0; r < sys.Resources; r++ {
		demand := 0.0
		for _, task := range sys.Tasks {
			demand += task.Need[r] * float64(task.Length)
		}
		if demand > bound {
			bound = demand
		}
	}
	return int(math.Ceil(bound - resourceEps))
}

// LowerBound combines the trivial lower bounds.
func (sys *System) LowerBound() int {
	lb := sys.LongestTask()
	if rb := sys.ResourceWorkBound(); rb > lb {
		lb = rb
	}
	return lb
}

// Schedule assigns a start tick to every task.
type Schedule struct {
	// Start[i] is the start tick of task i.
	Start []int
	// Makespan is the tick by which all tasks have finished.
	Makespan int
}

// Feasible checks the schedule against the system's resource
// capacities tick by tick.
func (sys *System) Feasible(sched *Schedule) error {
	if len(sched.Start) != len(sys.Tasks) {
		return fmt.Errorf("sched: schedule covers %d tasks, system has %d", len(sched.Start), len(sys.Tasks))
	}
	horizon := 0
	for i, start := range sched.Start {
		if start < 0 {
			return fmt.Errorf("sched: task %d starts at negative tick %d", i, start)
		}
		if end := start + sys.Tasks[i].Length; end > horizon {
			horizon = end
		}
	}
	if horizon != sched.Makespan {
		return fmt.Errorf("sched: declared makespan %d, computed %d", sched.Makespan, horizon)
	}
	for t := 0; t < horizon; t++ {
		use := make(map[int]float64, sys.Resources)
		for i, start := range sched.Start {
			if t < start || t >= start+sys.Tasks[i].Length {
				continue
			}
			for r, need := range sys.Tasks[i].Need {
				use[r] += need
				if use[r] > 1+resourceEps {
					return fmt.Errorf("sched: resource %d over capacity (%.3f) at tick %d", r, use[r], t)
				}
			}
		}
	}
	return nil
}
