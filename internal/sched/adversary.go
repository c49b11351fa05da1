package sched

import (
	"fmt"
	"strconv"
)

// Adversary builds the paper's Section 4 worst-case instance for the
// greedy manager: transactions T0..Ts over objects X1..Xs (indices
// 0..s-1 here), each of one time unit (m ticks):
//
//   - Ti has an earlier timestamp than Ti-1 (Ts is the oldest);
//   - at time 0, each Ti with 0 <= i < s opens X_{i+1};
//   - at time 1-ε ("the last tick"), each Ti with i >= 1 opens X_i,
//     in turn aborting Ti-1; Ts opens only Xs, at the last tick.
//
// Greedy completes one transaction per round, for a makespan of s+1
// time units, while an optimal list schedule (evens then odds) takes
// 2. The makespan ratio therefore grows linearly in s even though the
// Theorem 9 bound is quadratic; whether the quadratic bound is tight
// is the paper's open problem.
//
// s must be at least 1, and m at least 2 so "time 0" and "time 1-ε"
// are distinct ticks; any other s or m is an error, not a different
// instance, since callers read makespans in units of their own m.
func Adversary(s, m int) (*Instance, error) {
	if s < 1 {
		return nil, fmt.Errorf("sched: adversary needs s >= 1 objects, got %d", s)
	}
	if err := checkUnit(m); err != nil {
		return nil, err
	}
	specs := make([]TxSpec, s+1)
	for i := 0; i <= s; i++ {
		var accesses []Access
		if i < s {
			accesses = append(accesses, Access{Offset: 0, Object: i}) // X_{i+1}
		}
		if i >= 1 {
			accesses = append(accesses, Access{Offset: m - 1, Object: i - 1}) // X_i
		}
		// Keep offsets sorted (the i < s access has offset 0).
		specs[i] = TxSpec{
			ID:        i,
			Length:    m,
			Timestamp: s - i, // Ts oldest
			Accesses:  accesses,
			Label:     "T" + strconv.Itoa(i),
		}
	}
	return &Instance{Specs: specs, Objects: s}, nil
}

// checkUnit rejects a time unit m too short to hold two distinct
// ticks, the least an instance with an access at the start and at the
// end of a unit can be built on.
func checkUnit(m int) error {
	if m < 2 {
		return fmt.Errorf("sched: a time unit needs m >= 2 ticks, got %d", m)
	}
	return nil
}

// EvenOddOrder is the list order that achieves the optimal makespan 2
// on the adversary task system: all even transactions, then all odd.
func EvenOddOrder(n int) []int {
	var order []int
	for i := 0; i < n; i += 2 {
		order = append(order, i)
	}
	for i := 1; i < n; i += 2 {
		order = append(order, i)
	}
	return order
}

// LivelockInstance is the two-transaction instance that livelocks an
// always-abort manager: both transactions open the same object at the
// start of an attempt of length m >= 2, so whichever transaction is
// mid-flight is aborted by the other's restart before it can commit,
// forever ("if a contention manager always advises transactions to
// abort one another, then live-lock can happen"). An m below 2 is an
// error.
func LivelockInstance(m int) (*Instance, error) {
	if err := checkUnit(m); err != nil {
		return nil, err
	}
	return &Instance{
		Objects: 1,
		Specs: []TxSpec{
			{
				ID: 0, Length: m, Timestamp: 0, Label: "T0",
				Accesses: []Access{{Offset: 0, Object: 0}},
			},
			{
				ID: 1, Length: m, Timestamp: 1, Label: "T1",
				Accesses: []Access{{Offset: 0, Object: 0}},
			},
		},
	}, nil
}

// CycleInstance is the two-transaction cyclic-conflict instance that
// deadlocks an always-wait manager and livelocks an always-abort one:
// T0 opens A then B, T1 opens B then A, at mirrored offsets. An m
// below 2 is an error.
func CycleInstance(m int) (*Instance, error) {
	if err := checkUnit(m); err != nil {
		return nil, err
	}
	return &Instance{
		Objects: 2,
		Specs: []TxSpec{
			{
				ID: 0, Length: m, Timestamp: 0, Label: "T0",
				Accesses: []Access{{Offset: 0, Object: 0}, {Offset: m - 1, Object: 1}},
			},
			{
				ID: 1, Length: m, Timestamp: 1, Label: "T1",
				Accesses: []Access{{Offset: 0, Object: 1}, {Offset: m - 1, Object: 0}},
			},
		},
	}, nil
}
