package sched

import (
	"sort"

	"repro/internal/core"
	"repro/internal/stm"
)

// The paper's closing open problems ask whether randomization can give
// a contention manager that behaves well with high probability. This
// study measures the empirical side: the distribution of completion
// times of the coin-flip manager on instances that defeat both
// deterministic extremes (always-wait deadlocks on the cycle,
// always-abort livelocks on the same-object clash).

// RandomizedStudy is the empirical completion-time distribution of the
// coin-flip manager over independent runs of one instance.
type RandomizedStudy struct {
	// Trials is the number of independent runs.
	Trials int
	// CompletedFraction is the share of runs that completed within
	// the tick budget.
	CompletedFraction float64
	// P50, P90, P99 are completion-time quantiles in ticks (over the
	// completed runs).
	P50, P90, P99 int
	// Worst is the largest completion time observed.
	Worst int
}

// StudyRandomized runs the instance `trials` times under the coin-flip
// manager (core.Randomized) with abort probability p and independent
// seeds, returning the completion-time distribution. A budget of
// maxTicks bounds each run.
func StudyRandomized(ins *Instance, p float64, trials, maxTicks uint) (*RandomizedStudy, error) {
	if trials == 0 {
		trials = 1
	}
	var times []int
	completed := 0
	for trial := uint(0); trial < trials; trial++ {
		// Each transaction flips its own coin, seeded by the trial and
		// its place in the instance.
		seed := uint64(trial+1) << 32
		coin := func() stm.Manager {
			seed++
			r := core.NewRandomized()
			r.P = p
			r.Seed(seed)
			return r
		}
		res, err := Simulate(ins, coin, int(maxTicks))
		if err != nil {
			return nil, err
		}
		if res.Completed {
			completed++
			times = append(times, res.Makespan)
		}
	}
	study := &RandomizedStudy{
		Trials:            int(trials),
		CompletedFraction: float64(completed) / float64(trials),
	}
	if len(times) > 0 {
		sort.Ints(times)
		study.P50 = times[len(times)/2]
		study.P90 = times[len(times)*9/10]
		study.P99 = times[len(times)*99/100]
		study.Worst = times[len(times)-1]
	}
	return study, nil
}
