package sched

import (
	"fmt"
	"math/rand/v2"
	"sort"

	"repro/internal/core"
)

// Bound returns the paper's Theorem 9 competitive bound s(s+1)+2 for
// s shared objects.
func Bound(s int) int { return s*(s+1) + 2 }

// TaskSystemOf converts a simulator instance into the corresponding
// Garey–Graham task system (Section 4.2): each transaction T_j of
// duration δ_j becomes a task T*_j of the same duration whose resource
// needs equal the transaction's object needs, held for the task's
// whole duration.
func TaskSystemOf(ins *Instance) *System {
	tasks := make([]Task, len(ins.Specs))
	for i, spec := range ins.Specs {
		need := make(map[int]float64)
		for _, acc := range spec.Accesses {
			need[acc.Object] = 1
		}
		tasks[i] = Task{ID: i, Length: spec.Length, Need: need}
	}
	return &System{Tasks: tasks, Resources: ins.Objects}
}

// RatioReport is one data point of the competitive-ratio experiment.
type RatioReport struct {
	// Objects is s, the number of shared objects.
	Objects int
	// Transactions is n.
	Transactions int
	// GreedyMakespan is the simulated greedy makespan in ticks.
	GreedyMakespan int
	// OptimalMakespan is the exact off-line optimum in ticks.
	OptimalMakespan int
	// Ratio is Greedy/Optimal.
	Ratio float64
	// Bound is s(s+1)+2.
	Bound int
	// PendingCommitOK records whether the greedy run satisfied the
	// pending-commit property.
	PendingCommitOK bool
}

// String formats the report as one table row.
func (r RatioReport) String() string {
	return fmt.Sprintf("n=%-2d s=%-2d greedy=%-4d opt=%-4d ratio=%5.2f bound=%d",
		r.Transactions, r.Objects, r.GreedyMakespan, r.OptimalMakespan, r.Ratio, r.Bound)
}

// RandomInstance draws a random simulator instance with n
// transactions over s objects, lengths in [1, maxLen] ticks and one to
// maxAccess distinct object accesses at random offsets. Timestamps are
// a random permutation, modelling arbitrary arrival order.
func RandomInstance(rng *rand.Rand, n, s, maxLen, maxAccess int) *Instance {
	if maxAccess > s {
		maxAccess = s
	}
	stamps := rng.Perm(n)
	specs := make([]TxSpec, n)
	for i := 0; i < n; i++ {
		length := 1 + int(rng.Int64N(int64(maxLen)))
		k := 1 + int(rng.Int64N(int64(maxAccess)))
		objs := rng.Perm(s)[:k]
		accesses := make([]Access, k)
		for j, obj := range objs {
			accesses[j] = Access{Offset: int(rng.Int64N(int64(length))), Object: obj}
		}
		sort.Slice(accesses, func(a, b int) bool { return accesses[a].Offset < accesses[b].Offset })
		specs[i] = TxSpec{ID: i, Length: length, Timestamp: stamps[i], Accesses: accesses}
	}
	return &Instance{Specs: specs, Objects: s}
}

// MeasureRatio simulates the instance under greedy, computes the exact
// optimal task-system makespan, and returns the comparison.
func MeasureRatio(ins *Instance) (*RatioReport, error) {
	res, err := Simulate(ins, core.MustFactory("greedy"), 0)
	if err != nil {
		return nil, err
	}
	if !res.Completed {
		return nil, fmt.Errorf("sched: greedy failed to complete the instance (bug: greedy always completes)")
	}
	opt, err := TaskSystemOf(ins).Optimal()
	if err != nil {
		return nil, err
	}
	report := &RatioReport{
		Objects:         ins.Objects,
		Transactions:    len(ins.Specs),
		GreedyMakespan:  res.Makespan,
		OptimalMakespan: opt.Makespan,
		Bound:           Bound(ins.Objects),
		PendingCommitOK: CheckPendingCommit(res) < 0,
	}
	if opt.Makespan > 0 {
		report.Ratio = float64(report.GreedyMakespan) / float64(opt.Makespan)
	}
	return report, nil
}

// RatioSweep runs trials random instances for each (n, s) in the given
// lists and returns all reports plus the worst ratio seen. Every
// report must respect Theorem 9: ratio <= s(s+1)+2.
func RatioSweep(seed uint64, ns, ss []int, trials int) ([]RatioReport, float64, error) {
	rng := rand.New(rand.NewPCG(seed, seed^0xabcdef))
	var reports []RatioReport
	worst := 0.0
	for _, n := range ns {
		for _, s := range ss {
			for trial := 0; trial < trials; trial++ {
				ins := RandomInstance(rng, n, s, 4, 3)
				report, err := MeasureRatio(ins)
				if err != nil {
					return nil, 0, fmt.Errorf("n=%d s=%d trial=%d: %w", n, s, trial, err)
				}
				reports = append(reports, *report)
				if report.Ratio > worst {
					worst = report.Ratio
				}
			}
		}
	}
	return reports, worst, nil
}
