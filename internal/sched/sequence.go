package sched

import (
	"fmt"

	"repro/internal/stm"
)

// The paper's closing open problem asks for a makespan analysis of
// threads that execute a sequence of transactions instead of just one.
// This file adds the model: an Instance may partition its transactions
// into per-thread sequences; a transaction with a predecessor cannot
// start until the predecessor commits, and (as in the real STM) it
// takes its timestamp when it first starts, not at time zero. The
// analysis stays open — the machinery here measures.

// SequenceInstance builds an instance of `threads` sequences with
// `perThread` transactions each, over s objects. Transaction j of
// thread i has the given length in ticks and touches `touches` objects
// chosen by a deterministic spread (so runs are reproducible without a
// seed). Timestamps are dynamic: -1 until the simulator assigns one at
// first start, which is exactly how STM.Atomically stamps
// transactions in the STM.
func SequenceInstance(threads, perThread, s, length, touches int) *Instance {
	if threads < 1 {
		threads = 1
	}
	if perThread < 1 {
		perThread = 1
	}
	if s < 1 {
		s = 1
	}
	if length < 1 {
		length = 1
	}
	if touches < 1 {
		touches = 1
	}
	if touches > s {
		touches = s
	}
	var specs []TxSpec
	sequences := make([][]int, threads)
	for th := 0; th < threads; th++ {
		for j := 0; j < perThread; j++ {
			id := len(specs)
			accesses := make([]Access, 0, touches)
			for a := 0; a < touches; a++ {
				obj := (th + j + a*(th+1)) % s
				offset := (a * (length - 1)) / touches
				accesses = append(accesses, Access{Offset: offset, Object: obj})
			}
			// Offsets are non-decreasing by construction; objects may
			// repeat across a, so deduplicate keeping the earliest.
			accesses = dedupeAccesses(accesses)
			specs = append(specs, TxSpec{
				ID:        id,
				Length:    length,
				Timestamp: DynamicTimestamp,
				Accesses:  accesses,
				Label:     fmt.Sprintf("T%d.%d", th, j),
			})
			sequences[th] = append(sequences[th], id)
		}
	}
	return &Instance{Specs: specs, Objects: s, Sequences: sequences}
}

// dedupeAccesses removes repeated objects, keeping the earliest
// offset; input must be sorted by offset.
func dedupeAccesses(accesses []Access) []Access {
	seen := make(map[int]bool, len(accesses))
	out := accesses[:0]
	for _, acc := range accesses {
		if seen[acc.Object] {
			continue
		}
		seen[acc.Object] = true
		out = append(out, acc)
	}
	return out
}

// SequenceReport compares a manager's makespan on a sequence instance
// against the trivial resource-work lower bound (no manager can beat
// the busiest object's total demand).
type SequenceReport struct {
	Threads    int
	PerThread  int
	Objects    int
	Makespan   int
	LowerBound int
	// Ratio is Makespan / LowerBound, an upper bound on the true
	// competitive ratio (the optimum lies between the two).
	Ratio float64
	// Completed is false on deadlock/livelock.
	Completed bool
}

// MeasureSequences simulates the instance under the manager and
// reports the makespan against the resource-work lower bound.
func MeasureSequences(ins *Instance, mgr stm.ManagerFactory) (*SequenceReport, error) {
	res, err := Simulate(ins, mgr, 0)
	if err != nil {
		return nil, err
	}
	// Lower bound: the busiest object's total exclusive demand, and
	// the longest sequence's serial length.
	demand := make([]int, ins.Objects)
	for _, spec := range ins.Specs {
		for _, acc := range spec.Accesses {
			demand[acc.Object] += spec.Length - acc.Offset
		}
	}
	lower := 0
	for _, d := range demand {
		if d > lower {
			lower = d
		}
	}
	for _, seq := range ins.Sequences {
		serial := 0
		for _, id := range seq {
			serial += ins.Specs[id].Length
		}
		if serial > lower {
			lower = serial
		}
	}
	if lower == 0 {
		lower = 1
	}
	report := &SequenceReport{
		Threads:    len(ins.Sequences),
		Objects:    ins.Objects,
		Makespan:   res.Makespan,
		LowerBound: lower,
		Ratio:      float64(res.Makespan) / float64(lower),
		Completed:  res.Completed,
	}
	if report.Threads > 0 {
		report.PerThread = len(ins.Specs) / report.Threads
	}
	return report, nil
}
