package sched

import "fmt"

// CheckPendingCommit verifies the pending-commit property on a
// simulation trace: at every tick t earlier than the makespan, some
// action running at t is a committing action (its transaction runs
// uninterrupted from t until it commits). This is the property
// Theorem 9 requires of a contention manager, satisfied by greedy
// (the oldest running transaction neither waits nor is aborted) and
// violated by the always-wait and always-abort extremes.
//
// It returns the first violating tick, or -1 if the property holds.
func CheckPendingCommit(res *Result) int {
	if !res.Completed {
		// An incomplete run violates the property somewhere by
		// definition; report the earliest tick not covered.
		return firstUncovered(res, res.Makespan)
	}
	return firstUncovered(res, res.Makespan)
}

func firstUncovered(res *Result, horizon int) int {
	covered := make([]bool, horizon)
	for _, act := range res.Actions {
		if act.Kind != ActionCommit {
			continue
		}
		for t := act.Start; t < act.End && t < horizon; t++ {
			if t >= 0 {
				covered[t] = true
			}
		}
	}
	for t := 0; t < horizon; t++ {
		if !covered[t] {
			return t
		}
	}
	return -1
}

// VerifyPendingCommit wraps CheckPendingCommit with a descriptive
// error.
func VerifyPendingCommit(res *Result) error {
	if t := CheckPendingCommit(res); t >= 0 {
		return fmt.Errorf("sched: pending-commit property violated at tick %d", t)
	}
	return nil
}
