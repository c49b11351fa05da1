package stm_test

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/stm"
)

// aggressiveManager is a minimal test manager: always abort the enemy.
type aggressiveManager struct{ stm.BaseManager }

func (aggressiveManager) ResolveConflict(me, enemy stm.Contender) (stm.Decision, time.Duration) {
	return stm.AbortOther, 0
}

// politeManager is a minimal test manager: always wait, a few
// microseconds at a time.
type politeManager struct{ stm.BaseManager }

func (politeManager) ResolveConflict(me, enemy stm.Contender) (stm.Decision, time.Duration) {
	return stm.Wait, 2 * time.Microsecond
}

// suicidalManager aborts itself on every conflict.
type suicidalManager struct{ stm.BaseManager }

func (suicidalManager) ResolveConflict(me, enemy stm.Contender) (stm.Decision, time.Duration) {
	return stm.AbortSelf, 0
}

// worldOf returns an STM whose every session runs mgr. The test
// managers are stateless (or synchronize their own state), so one
// instance serves all sessions.
func worldOf(mgr stm.Manager, opts ...stm.Option) *stm.STM {
	return stm.New(append(opts, stm.WithManagerFactory(func() stm.Manager { return mgr }))...)
}

func newCounterWorld(t *testing.T, mgr stm.Manager) (*stm.STM, *stm.Var[int]) {
	t.Helper()
	return worldOf(mgr), stm.NewVar(0)
}

func counterValue(t *testing.T, counter *stm.Var[int]) int {
	t.Helper()
	return counter.Peek()
}

func incr(tx *stm.Tx, counter *stm.Var[int]) error {
	return stm.Update(tx, counter, func(v int) int { return v + 1 })
}

func TestCommitMakesWriteVisible(t *testing.T) {
	s, obj := newCounterWorld(t, aggressiveManager{})
	if err := s.Atomically(func(tx *stm.Tx) error { return incr(tx, obj) }); err != nil {
		t.Fatalf("Atomically: %v", err)
	}
	if got := counterValue(t, obj); got != 1 {
		t.Fatalf("counter = %d, want 1", got)
	}
}

func TestUserErrorAbortsAndPropagates(t *testing.T) {
	s, obj := newCounterWorld(t, aggressiveManager{})
	boom := errors.New("boom")
	err := s.Atomically(func(tx *stm.Tx) error {
		if err := incr(tx, obj); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if got := counterValue(t, obj); got != 0 {
		t.Fatalf("counter = %d after user error, want 0 (write must not commit)", got)
	}
}

func TestReadOwnWrite(t *testing.T) {
	s, obj := newCounterWorld(t, aggressiveManager{})
	err := s.Atomically(func(tx *stm.Tx) error {
		if err := incr(tx, obj); err != nil {
			return err
		}
		got, err := stm.Read(tx, obj)
		if err != nil {
			return err
		}
		if got != 1 {
			return fmt.Errorf("read own write saw %d, want 1", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRepeatedReadIsStable(t *testing.T) {
	// Reads are invisible and the writer finds the object unowned, so no
	// manager is ever consulted here.
	s, obj := newCounterWorld(t, aggressiveManager{})

	interfered := false
	err := s.Atomically(func(tx *stm.Tx) error {
		v1, err := stm.Read(tx, obj)
		if err != nil {
			return err
		}
		// A conflicting commit from another thread between the two
		// reads must not produce two different versions within one
		// attempt: the repeated read returns the recorded version and
		// the stale read set then aborts the commit. Interfere on the
		// first attempt only, so the retry can commit.
		if !interfered {
			interfered = true
			done := make(chan error, 1)
			go func() {
				done <- s.Atomically(func(wtx *stm.Tx) error { return incr(wtx, obj) })
			}()
			if err := <-done; err != nil {
				return fmt.Errorf("writer: %w", err)
			}
		}
		v2, err := stm.Read(tx, obj)
		if err != nil {
			return err
		}
		if v1 != v2 {
			return fmt.Errorf("repeated read changed values within a transaction (%d then %d)", v1, v2)
		}
		return nil
	})
	// The reader may abort-and-retry (its read set is stale on commit);
	// it must terminate with a consistent view either way.
	if err != nil {
		t.Fatal(err)
	}
}

func TestAbortSelfRetriesAndCommits(t *testing.T) {
	// Hold the object with a parked transaction (it opens first and so
	// never consults its manager), then let a suicidal manager clash
	// with it: it should abort itself, retry, and eventually commit
	// after the blocker finishes.
	s, obj := newCounterWorld(t, suicidalManager{})
	held := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = s.Atomically(func(tx *stm.Tx) error {
			if err := incr(tx, obj); err != nil {
				return err
			}
			close(held)
			<-release
			return nil
		})
	}()
	<-held

	done := make(chan error, 1)
	var attempts atomic.Int64
	go func() {
		done <- s.Atomically(func(tx *stm.Tx) error {
			attempts.Add(1)
			return incr(tx, obj)
		})
	}()

	// Hold the blocker until the kamikaze has demonstrably clashed
	// with it at least once (a second attempt implies a self-abort).
	for attempts.Load() < 2 {
		runtime.Gosched()
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("suicidal thread: %v", err)
	}
	wg.Wait()
	if got := counterValue(t, obj); got != 2 {
		t.Fatalf("counter = %d, want 2", got)
	}
	// Nobody aborts the blocker, so every abort is the kamikaze's.
	if aborts := s.TotalStats().Aborts; aborts == 0 {
		t.Fatalf("suicidal thread recorded no aborts; expected at least one")
	}
}

func TestEnemyAbortForcesRetry(t *testing.T) {
	s, obj := newCounterWorld(t, aggressiveManager{})

	held := make(chan struct{})
	proceed := make(chan struct{})
	var victimErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		first := true
		victimErr = s.Atomically(func(tx *stm.Tx) error {
			if err := incr(tx, obj); err != nil {
				return err
			}
			if first {
				first = false
				close(held)
				<-proceed
			}
			return nil
		})
	}()
	<-held

	// The aggressor kills the victim and commits.
	if err := s.Atomically(func(tx *stm.Tx) error { return incr(tx, obj) }); err != nil {
		t.Fatalf("aggressor: %v", err)
	}
	close(proceed)
	wg.Wait()
	if victimErr != nil {
		t.Fatalf("victim: %v", victimErr)
	}
	if got := counterValue(t, obj); got != 2 {
		t.Fatalf("counter = %d, want 2 (victim must retry after enemy abort)", got)
	}
	// The aggressor met the victim mid-flight and killed it; it was
	// never aborted itself.
	if s.TotalStats().Aborts == 0 {
		t.Fatalf("victim recorded no aborts")
	}
}

func TestTimestampRetainedAcrossRetries(t *testing.T) {
	s, obj := newCounterWorld(t, aggressiveManager{})

	var stamps []uint64
	held := make(chan struct{})
	proceed := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		first := true
		_ = s.Atomically(func(tx *stm.Tx) error {
			stamps = append(stamps, tx.Timestamp())
			if err := incr(tx, obj); err != nil {
				return err
			}
			if first {
				first = false
				close(held)
				<-proceed
			}
			return nil
		})
	}()
	<-held
	if err := s.Atomically(func(tx *stm.Tx) error { return incr(tx, obj) }); err != nil {
		t.Fatalf("aggressor: %v", err)
	}
	close(proceed)
	wg.Wait()

	if len(stamps) < 2 {
		t.Fatalf("victim ran %d attempts, want at least 2", len(stamps))
	}
	for i, ts := range stamps[1:] {
		if ts != stamps[0] {
			t.Fatalf("attempt %d has timestamp %d, want %d (timestamps must be retained across retries)", i+1, ts, stamps[0])
		}
	}
}

func TestHaltedTransactionObstructsUntilAborted(t *testing.T) {
	s, obj := newCounterWorld(t, aggressiveManager{})

	// A transaction halts (crashes) while holding the object.
	err := s.Atomically(func(tx *stm.Tx) error {
		if err := incr(tx, obj); err != nil {
			return err
		}
		tx.Halt()
		_, err := stm.Read(tx, obj) // any further access reports the halt
		return err
	})
	if !errors.Is(err, stm.ErrHalted) {
		t.Fatalf("crasher err = %v, want ErrHalted", err)
	}
	if got := counterValue(t, obj); got != 0 {
		t.Fatalf("counter = %d, want 0 (halted tx is still active, its write uncommitted)", got)
	}

	// An aggressive enemy can abort the corpse and proceed.
	if err := s.Atomically(func(tx *stm.Tx) error { return incr(tx, obj) }); err != nil {
		t.Fatalf("rescuer: %v", err)
	}
	if got := counterValue(t, obj); got != 1 {
		t.Fatalf("counter = %d, want 1", got)
	}
}

func TestStatsAccumulate(t *testing.T) {
	s, obj := newCounterWorld(t, aggressiveManager{})
	for i := 0; i < 10; i++ {
		if err := s.Atomically(func(tx *stm.Tx) error { return incr(tx, obj) }); err != nil {
			t.Fatal(err)
		}
	}
	st := s.TotalStats()
	if st.Commits != 10 {
		t.Fatalf("Commits = %d, want 10", st.Commits)
	}
	if st.Opens != 10 {
		t.Fatalf("Opens = %d, want 10", st.Opens)
	}
}

func TestPeekOutsideTransaction(t *testing.T) {
	v := stm.NewVar("hello")
	if got := v.Peek(); got != "hello" {
		t.Fatalf("Peek = %q, want %q", got, "hello")
	}
}

func TestNilInitialValue(t *testing.T) {
	s := stm.New()
	obj := stm.NewVar[*int](nil)
	err := s.Atomically(func(tx *stm.Tx) error {
		v, err := stm.Read(tx, obj)
		if err != nil {
			return err
		}
		if v != nil {
			return fmt.Errorf("initial read = %v, want nil", v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if obj.Peek() != nil {
		t.Fatalf("Peek after nil init = %v, want nil", obj.Peek())
	}
}
