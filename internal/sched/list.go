package sched

import "fmt"

// ListSchedule runs the Garey–Graham list scheduler: processors scan
// the list front to back and start the first unstarted task whose
// resources are available; tasks run to completion. With at least as
// many processors as tasks (the paper's setting) this reduces to: at
// every tick, start every unstarted task, in list order, that fits in
// the residual resource capacity.
//
// order must be a permutation of task IDs. Any list schedule is within
// a factor of s+1 of optimal (Garey & Graham 1975), and list schedules
// satisfy the list-scheduler property: no task waits while its
// resources are free.
func (sys *System) ListSchedule(order []int) (*Schedule, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if err := checkPermutation(order, len(sys.Tasks)); err != nil {
		return nil, err
	}
	n := len(sys.Tasks)
	start := make([]int, n)
	finish := make([]int, n)
	started := make([]bool, n)
	for i := range start {
		start[i] = -1
	}
	makespan := 0
	remaining := n
	for t := 0; remaining > 0; t++ {
		if t > sys.TotalWork()+1 {
			return nil, fmt.Errorf("sched: list scheduler failed to place all tasks by tick %d", t)
		}
		// Residual capacity given tasks running at tick t.
		use := make(map[int]float64, sys.Resources)
		for i := range sys.Tasks {
			if started[i] && t >= start[i] && t < finish[i] {
				for r, need := range sys.Tasks[i].Need {
					use[r] += need
				}
			}
		}
		for _, id := range order {
			if started[id] {
				continue
			}
			task := sys.Tasks[id]
			if !fits(use, task.Need) {
				continue
			}
			started[id] = true
			start[id] = t
			finish[id] = t + task.Length
			remaining--
			for r, need := range task.Need {
				use[r] += need
			}
			if finish[id] > makespan {
				makespan = finish[id]
			}
		}
	}
	return &Schedule{Start: start, Makespan: makespan}, nil
}

func fits(use map[int]float64, need map[int]float64) bool {
	for r, n := range need {
		if use[r]+n > 1+resourceEps {
			return false
		}
	}
	return true
}

func checkPermutation(order []int, n int) error {
	if len(order) != n {
		return fmt.Errorf("sched: order has %d entries, want %d", len(order), n)
	}
	seen := make([]bool, n)
	for _, id := range order {
		if id < 0 || id >= n {
			return fmt.Errorf("sched: order entry %d out of range [0,%d)", id, n)
		}
		if seen[id] {
			return fmt.Errorf("sched: order repeats task %d", id)
		}
		seen[id] = true
	}
	return nil
}
