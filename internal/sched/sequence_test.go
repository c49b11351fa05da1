package sched_test

import (
	"testing"

	"repro/internal/sched"
	"repro/internal/stm"
)

func TestSequenceInstanceValidates(t *testing.T) {
	ins := sched.SequenceInstance(3, 4, 4, 3, 2)
	if err := ins.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(ins.Specs) != 12 {
		t.Fatalf("got %d specs, want 12", len(ins.Specs))
	}
	if len(ins.Sequences) != 3 {
		t.Fatalf("got %d sequences, want 3", len(ins.Sequences))
	}
	for _, spec := range ins.Specs {
		if spec.Timestamp != sched.DynamicTimestamp {
			t.Fatalf("spec %d has static timestamp %d", spec.ID, spec.Timestamp)
		}
	}
}

func TestSequencesRespectOrder(t *testing.T) {
	ins := sched.SequenceInstance(2, 3, 3, 2, 1)
	res, err := sched.Simulate(ins, greedy, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("sequences did not complete under greedy")
	}
	for _, seq := range ins.Sequences {
		for k := 1; k < len(seq); k++ {
			prev, cur := seq[k-1], seq[k]
			if res.CommitTick[cur] <= res.CommitTick[prev] {
				t.Fatalf("transaction %d committed at %d, not after its predecessor %d (at %d)",
					cur, res.CommitTick[cur], prev, res.CommitTick[prev])
			}
		}
	}
}

func TestSequenceValidationRejects(t *testing.T) {
	base := sched.SequenceInstance(2, 2, 2, 2, 1)
	// Duplicate membership.
	dup := *base
	dup.Sequences = [][]int{{0, 1}, {1, 2, 3}}
	if err := dup.Validate(); err == nil {
		t.Error("duplicate sequence membership accepted")
	}
	// Incomplete partition.
	missing := *base
	missing.Sequences = [][]int{{0, 1}, {2}}
	if err := missing.Validate(); err == nil {
		t.Error("incomplete sequence partition accepted")
	}
	// Out of range.
	oor := *base
	oor.Sequences = [][]int{{0, 1}, {2, 9}}
	if err := oor.Validate(); err == nil {
		t.Error("out-of-range sequence member accepted")
	}
}

func TestDynamicTimestampsAssignedInStartOrder(t *testing.T) {
	ins := sched.SequenceInstance(2, 2, 2, 2, 1)
	var starts []int
	_, err := sched.SimulateObserved(ins, greedy, 0, func(tick int, event string, tx, other int) {
		if event == "start" {
			starts = append(starts, tx)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(starts) != len(ins.Specs) {
		t.Fatalf("saw %d starts, want %d", len(starts), len(ins.Specs))
	}
	// The first transaction of each thread starts at tick 0, before
	// any successor.
	first := map[int]bool{}
	for _, seq := range ins.Sequences {
		first[seq[0]] = true
	}
	for i := 0; i < len(ins.Sequences); i++ {
		if !first[starts[i]] {
			t.Fatalf("start %d was %d, which is not a sequence head", i, starts[i])
		}
	}
}

func TestMeasureSequencesGreedyVsKarma(t *testing.T) {
	ins := sched.SequenceInstance(4, 3, 4, 3, 2)
	for name, mgr := range map[string]stm.ManagerFactory{"greedy": greedy, "karma": karma} {
		report, err := sched.MeasureSequences(ins, mgr)
		if err != nil {
			t.Fatal(err)
		}
		if !report.Completed {
			t.Fatalf("%s did not complete the sequence workload", name)
		}
		if report.Ratio < 1 {
			t.Fatalf("%s beat the lower bound: %+v", name, report)
		}
		if report.Makespan < report.LowerBound {
			t.Fatalf("makespan below lower bound: %+v", report)
		}
	}
}

func TestStudyRandomizedCompletesHardInstances(t *testing.T) {
	for name, ins := range map[string]*sched.Instance{
		"cycle":       mustInstance(sched.CycleInstance(2)),
		"same-object": mustInstance(sched.LivelockInstance(2)),
	} {
		study, err := sched.StudyRandomized(ins, 0.5, 50, 100_000)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if study.CompletedFraction < 0.99 {
			t.Fatalf("%s: randomized completed only %.0f%% of runs", name, 100*study.CompletedFraction)
		}
		if study.P50 <= 0 || study.Worst < study.P99 || study.P99 < study.P90 || study.P90 < study.P50 {
			t.Fatalf("%s: quantiles inconsistent: %+v", name, study)
		}
	}
}

func TestStudyRandomizedDegenerateP(t *testing.T) {
	// p=0 is the always-wait manager: the cycle instance must fail.
	study, err := sched.StudyRandomized(mustInstance(sched.CycleInstance(2)), 0, 5, 500)
	if err != nil {
		t.Fatal(err)
	}
	if study.CompletedFraction != 0 {
		t.Fatalf("p=0 completed %.0f%% of cycle runs; expected deadlock", 100*study.CompletedFraction)
	}
	// p=1 is always-abort: the same-object instance must fail.
	study, err = sched.StudyRandomized(mustInstance(sched.LivelockInstance(2)), 1, 5, 500)
	if err != nil {
		t.Fatal(err)
	}
	if study.CompletedFraction != 0 {
		t.Fatalf("p=1 completed %.0f%% of same-object runs; expected livelock", 100*study.CompletedFraction)
	}
}

func TestSequencesBackwardCompatibleNil(t *testing.T) {
	// Instances without sequences behave exactly as before: this is
	// the adversary regression re-run through the new code path.
	ins := mustInstance(sched.Adversary(3, 2))
	if ins.Sequences != nil {
		t.Fatal("adversary should not define sequences")
	}
	res, err := sched.Simulate(ins, greedy, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 8 {
		t.Fatalf("adversary makespan changed: %d", res.Makespan)
	}
}
