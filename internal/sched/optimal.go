package sched

import (
	"fmt"
	"math"
	"sort"
)

// Optimal computes an exact minimum-makespan schedule by branch and
// bound. Computing this is NP-complete in general (which is why the
// paper compares against it only analytically); the search here is
// exact and practical for the small instances used by the theory
// experiments (roughly n <= 10 with short integer lengths).
//
// The search branches on which subset of waiting tasks to start at the
// current event time — by the standard left-shift argument, some
// optimal schedule starts tasks only at time 0 or when another task
// finishes, so event-time branching preserves optimality.
func (sys *System) Optimal() (*Schedule, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	n := len(sys.Tasks)
	if n == 0 {
		return &Schedule{Start: nil, Makespan: 0}, nil
	}
	if n > optimalLimit {
		return nil, fmt.Errorf("sched: Optimal supports at most %d tasks, got %d", optimalLimit, n)
	}

	// Seed the bound with the list schedule in ID order, which is also
	// the witness returned if no strictly better schedule exists.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	seed, err := sys.ListSchedule(order)
	if err != nil {
		return nil, err
	}
	b := &bnb{
		sys:       sys,
		bestSpan:  seed.Makespan,
		bestStart: append([]int(nil), seed.Start...),
		start:     make([]int, n),
		lower:     sys.LowerBound(),
	}
	for i := range b.start {
		b.start[i] = -1
	}
	b.search(0, 0)
	return &Schedule{Start: b.bestStart, Makespan: b.bestSpan}, nil
}

// optimalLimit bounds the exact search.
const optimalLimit = 12

type bnb struct {
	sys       *System
	bestSpan  int
	bestStart []int
	start     []int
	lower     int
}

// search explores schedules from event time t with the given set of
// already-started tasks encoded in b.start (started[i] => start[i] >=
// 0). spanSoFar is the latest finish among started tasks.
func (b *bnb) search(t, spanSoFar int) {
	if b.bestSpan == b.lower {
		return // provably optimal already
	}
	n := len(b.sys.Tasks)
	// Waiting tasks and residual capacity at time t.
	var waiting []int
	use := make(map[int]float64, b.sys.Resources)
	nextFinish := math.MaxInt
	for i := 0; i < n; i++ {
		if b.start[i] < 0 {
			waiting = append(waiting, i)
			continue
		}
		finish := b.start[i] + b.sys.Tasks[i].Length
		if finish > t {
			for r, need := range b.sys.Tasks[i].Need {
				use[r] += need
			}
			if finish < nextFinish {
				nextFinish = finish
			}
		}
	}
	if len(waiting) == 0 {
		if spanSoFar < b.bestSpan {
			b.bestSpan = spanSoFar
			copy(b.bestStart, b.start)
		}
		return
	}
	// Bound: even if all waiting work ran immediately, the makespan is
	// at least t plus the longest waiting task, and at least the
	// resource-work bound for the remaining demand.
	bound := spanSoFar
	for _, id := range waiting {
		if end := t + b.sys.Tasks[id].Length; end > bound {
			bound = end
		}
	}
	if bound >= b.bestSpan {
		return
	}

	// Branch on every maximal choice of tasks to start now. We
	// enumerate subsets of the feasible waiting tasks; restricting to
	// subsets feasible as a group. To curb the fan-out we enumerate in
	// a fixed order and prune dominated branches (starting a superset
	// never hurts unless it blocks a later start, which the recursion
	// explores through the subset branches).
	feasible := feasibleSubsets(b.sys, waiting, use)
	startedAny := false
	for _, subset := range feasible {
		if len(subset) == 0 {
			continue
		}
		startedAny = true
		span := spanSoFar
		for _, id := range subset {
			b.start[id] = t
			if end := t + b.sys.Tasks[id].Length; end > span {
				span = end
			}
		}
		// Next event: earliest finish among all running tasks.
		next := nextFinish
		for _, id := range subset {
			if end := t + b.sys.Tasks[id].Length; end < next {
				next = end
			}
		}
		b.search(next, span)
		for _, id := range subset {
			b.start[id] = -1
		}
	}
	// Also consider starting nothing and waiting for the next finish
	// (useful when present tasks block a better joint start later).
	if nextFinish != math.MaxInt {
		b.search(nextFinish, spanSoFar)
	} else if !startedAny {
		// Nothing running and nothing fits: infeasible branch (cannot
		// happen for valid systems where each task fits alone).
		return
	}
}

// feasibleSubsets enumerates all subsets of waiting that fit together
// in the residual capacity, returned largest-first so promising
// branches are explored early.
func feasibleSubsets(sys *System, waiting []int, use map[int]float64) [][]int {
	var all [][]int
	m := len(waiting)
	if m > 16 {
		m = 16 // cap the fan-out; instances this large should not use Optimal
	}
	for mask := 1; mask < 1<<m; mask++ {
		trial := make(map[int]float64, len(use))
		for r, u := range use {
			trial[r] = u
		}
		ok := true
		var subset []int
		for bit := 0; bit < m && ok; bit++ {
			if mask&(1<<bit) == 0 {
				continue
			}
			id := waiting[bit]
			for r, need := range sys.Tasks[id].Need {
				trial[r] += need
				if trial[r] > 1+resourceEps {
					ok = false
					break
				}
			}
			subset = append(subset, id)
		}
		if ok {
			all = append(all, subset)
		}
	}
	sort.Slice(all, func(i, j int) bool { return len(all[i]) > len(all[j]) })
	return all
}
