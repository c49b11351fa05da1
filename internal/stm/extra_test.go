package stm_test

import (
	"strings"
	"testing"

	"repro/internal/stm"
)

func TestFullValidationEquivalence(t *testing.T) {
	// The ablation knob must not change results, only cost: the same
	// scripted run produces the same final state.
	for _, opts := range [][]stm.Option{nil, {stm.WithFullValidation()}} {
		s := stm.New(opts...)
		a := stm.NewVar(1)
		b := stm.NewVar(2)
		err := s.Atomically(func(tx *stm.Tx) error {
			av, err := stm.Read(tx, a)
			if err != nil {
				return err
			}
			return stm.Update(tx, b, func(v int) int { return v + av })
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := b.Peek(); got != 3 {
			t.Fatalf("b = %d, want 3 (opts %v)", got, opts)
		}
	}
}

func TestInterleaveOptionYields(t *testing.T) {
	// Functional check only: transactions still commit correctly with
	// the most aggressive yield period.
	s := stm.New(stm.WithInterleavePeriod(1))
	obj := stm.NewVar(0)
	for i := 0; i < 50; i++ {
		if err := s.Atomically(func(tx *stm.Tx) error { return incr(tx, obj) }); err != nil {
			t.Fatal(err)
		}
	}
	if got := counterValue(t, obj); got != 50 {
		t.Fatalf("counter = %d, want 50", got)
	}
}

func TestTxStringAndAccessors(t *testing.T) {
	s := stm.New()
	obj := stm.NewVar(0)
	err := s.Atomically(func(tx *stm.Tx) error {
		if tx.Timestamp() == 0 {
			t.Error("Timestamp() = 0, want positive")
		}
		if tx.Status() != stm.StatusActive {
			t.Errorf("Status() = %v, want active", tx.Status())
		}
		if tx.Aborts() != 0 {
			t.Errorf("Aborts() = %d, want 0", tx.Aborts())
		}
		if err := stm.Write(tx, obj, 1); err != nil {
			return err
		}
		if tx.Opens() != 1 {
			t.Errorf("Opens() = %d, want 1", tx.Opens())
		}
		if !strings.Contains(tx.String(), "active") {
			t.Errorf("String() = %q", tx.String())
		}
		tx.AddPriority(5)
		tx.AddPriority(2)
		if tx.Priority() != 7 {
			t.Errorf("Priority() = %d, want 7", tx.Priority())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAbortIdempotentAndCommitExcluded(t *testing.T) {
	s := stm.New()
	obj := stm.NewVar(0)
	// The blocked attempt hands its descriptor out; it stays valid for
	// as long as fn is held at release.
	held := make(chan *stm.Tx, 1)
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- s.Atomically(func(tx *stm.Tx) error {
			if err := stm.Write(tx, obj, 1); err != nil {
				return err
			}
			select {
			case held <- tx:
			default:
			}
			<-release
			return nil
		})
	}()
	tx := <-held
	if !tx.Abort() {
		t.Fatal("first Abort failed on an active transaction")
	}
	if !tx.Abort() {
		t.Fatal("Abort not idempotent on an aborted transaction")
	}
	if tx.Status() != stm.StatusAborted {
		t.Fatalf("status = %v", tx.Status())
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("aborted transaction did not retry to commit: %v", err)
	}
}

func TestStatsAbortRate(t *testing.T) {
	s := stm.Stats{Commits: 3, Aborts: 1}
	if got := s.AbortRate(); got != 0.25 {
		t.Fatalf("AbortRate = %g, want 0.25", got)
	}
	var empty stm.Stats
	if empty.AbortRate() != 0 {
		t.Fatal("empty AbortRate not zero")
	}
	s.Add(stm.Stats{Commits: 1, Aborts: 3, Conflicts: 2, EnemyAborts: 1, Opens: 9, Halted: 1})
	if s.Commits != 4 || s.Aborts != 4 || s.Conflicts != 2 || s.EnemyAborts != 1 || s.Opens != 9 || s.Halted != 1 {
		t.Fatalf("Add produced %+v", s)
	}
}

func TestWriteAfterReadUpgrade(t *testing.T) {
	// Read an object, then open it for writing in the same
	// transaction: the write sees the read version and the commit
	// succeeds (no false self-conflict).
	s := stm.New()
	obj := stm.NewVar(10)
	err := s.Atomically(func(tx *stm.Tx) error {
		v, err := stm.Read(tx, obj)
		if err != nil {
			return err
		}
		return stm.Write(tx, obj, v*2)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := obj.Peek(); got != 20 {
		t.Fatalf("obj = %d, want 20", got)
	}
}

func TestCommitClockAdvancesOnWritesOnly(t *testing.T) {
	s := stm.New()
	obj := stm.NewVar(0)
	before := s.CommitClock()
	if err := s.Atomically(func(tx *stm.Tx) error {
		_, err := stm.Read(tx, obj)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if s.CommitClock() != before {
		t.Fatal("read-only commit advanced the clock")
	}
	if err := s.Atomically(func(tx *stm.Tx) error { return incr(tx, obj) }); err != nil {
		t.Fatal(err)
	}
	if s.CommitClock() == before {
		t.Fatal("writer commit did not advance the clock")
	}
}
