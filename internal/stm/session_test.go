package stm_test

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/stm"
)

// TestSTMAtomicallyBasic: the goroutine-agnostic entry point commits a
// transaction on the built-in default manager.
func TestSTMAtomicallyBasic(t *testing.T) {
	s := stm.New()
	v := stm.NewVar(1)
	if err := s.Atomically(func(tx *stm.Tx) error {
		return stm.Update(tx, v, func(n int) int { return n * 10 })
	}); err != nil {
		t.Fatal(err)
	}
	if got := v.Peek(); got != 10 {
		t.Fatalf("v = %d, want 10", got)
	}
	if c := s.TotalStats().Commits; c != 1 {
		t.Fatalf("TotalStats().Commits = %d, want 1", c)
	}
}

// TestSTMAtomicallyManyGoroutines hammers the pooled surface from 64
// goroutines (run under -race in CI): no increment may be lost, and
// the atomic totals must agree with the work done.
func TestSTMAtomicallyManyGoroutines(t *testing.T) {
	const goroutines, perG = 64, 50
	s := stm.New(stm.WithManagerFactory(func() stm.Manager { return politeManager{} }))
	counter := stm.NewVar(0)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if err := s.Atomically(func(tx *stm.Tx) error { return incr(tx, counter) }); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := counter.Peek(); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
	if c := s.TotalStats().Commits; c != goroutines*perG {
		t.Fatalf("TotalStats().Commits = %d, want %d", c, goroutines*perG)
	}
}

// TestTotalStatsWithoutQuiescence reads TotalStats continuously while
// workers run: the call must be safe mid-flight (the old API required
// quiescence) and the observed commit counts must be monotone.
func TestTotalStatsWithoutQuiescence(t *testing.T) {
	const goroutines, perG = 8, 200
	s := stm.New(stm.WithManagerFactory(func() stm.Manager { return politeManager{} }))
	counter := stm.NewVar(0)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var monotone atomic.Bool
	monotone.Store(true)
	go func() {
		var last int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			c := s.TotalStats().Commits
			if c < last {
				monotone.Store(false)
			}
			last = c
		}
	}()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if err := s.Atomically(func(tx *stm.Tx) error { return incr(tx, counter) }); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	if !monotone.Load() {
		t.Fatal("TotalStats().Commits went backwards during the run")
	}
	if c := s.TotalStats().Commits; c != goroutines*perG {
		t.Fatalf("final Commits = %d, want %d", c, goroutines*perG)
	}
}

// TestUserErrorAbortsExactlyOnce: a user error from inside the
// transactional function runs the function exactly once (no retry) and
// surfaces the error unchanged through the pooled surface, leaving the
// writes unapplied.
func TestUserErrorAbortsExactlyOnce(t *testing.T) {
	s := stm.New()
	v := stm.NewVar(7)
	boom := errors.New("boom")
	calls := 0
	err := s.Atomically(func(tx *stm.Tx) error {
		calls++
		if err := stm.Write(tx, v, 99); err != nil {
			return err
		}
		return boom
	})
	if err != boom {
		t.Fatalf("err = %v, want the identical boom error", err)
	}
	if calls != 1 {
		t.Fatalf("transactional function ran %d times, want exactly 1", calls)
	}
	if got := v.Peek(); got != 7 {
		t.Fatalf("v = %d after user error, want 7 (write must not commit)", got)
	}
	st := s.TotalStats()
	if st.Commits != 0 {
		t.Fatalf("Commits = %d after user error, want 0", st.Commits)
	}
}

// TestZombieUserErrorRetries: an attempt whose read went stale before
// fn returned a user error is a zombie — the error was computed from a
// state that no longer exists — so the attempt is retried as a
// validation abort, not returned.
func TestZombieUserErrorRetries(t *testing.T) {
	s := stm.New()
	x := stm.NewVar(0)
	stale := errors.New("stale")
	attempts := 0
	err := s.Atomically(func(tx *stm.Tx) error {
		attempts++
		v, err := stm.Read(tx, x)
		if err != nil {
			return err
		}
		if attempts == 1 {
			wrote := make(chan error)
			go func() { wrote <- s.Atomically(func(tx *stm.Tx) error { return stm.Write(tx, x, 1) }) }()
			if err := <-wrote; err != nil {
				return err
			}
		}
		if v == 0 {
			return stale
		}
		return nil
	})
	if err != nil || attempts != 2 {
		t.Fatalf("err = %v after %d attempts, want nil after 2", err, attempts)
	}
	if st := s.TotalStats(); st.AbortsUser != 0 || st.AbortsValidation != 1 {
		t.Fatalf("AbortsUser = %d, AbortsValidation = %d; want 0 and 1", st.AbortsUser, st.AbortsValidation)
	}
}

// TestWrappedUserErrorSurfaces: a user error wrapping context still
// surfaces (errors.Is-compatible), while wrapped ErrAborted retries.
func TestWrappedUserErrorSurfaces(t *testing.T) {
	s := stm.New()
	base := errors.New("disk on fire")
	err := s.Atomically(func(tx *stm.Tx) error {
		return fmt.Errorf("saving: %w", base)
	})
	if !errors.Is(err, base) {
		t.Fatalf("err = %v, want wrap of %v", err, base)
	}
}

// TestErrHaltedPropagatesWithoutRetry: failure injection surfaces
// ErrHalted through STM.Atomically after a single run of the function,
// and the halted transaction keeps obstructing until an enemy's
// manager clears the corpse (the default manager does).
func TestErrHaltedPropagatesWithoutRetry(t *testing.T) {
	s := stm.New()
	v := stm.NewVar(0)
	calls := 0
	err := s.Atomically(func(tx *stm.Tx) error {
		calls++
		if err := incr(tx, v); err != nil {
			return err
		}
		tx.Halt()
		_, err := stm.Read(tx, v)
		return err
	})
	if !errors.Is(err, stm.ErrHalted) {
		t.Fatalf("err = %v, want ErrHalted", err)
	}
	if calls != 1 {
		t.Fatalf("halted function ran %d times, want exactly 1 (no retry)", calls)
	}
	if got := v.Peek(); got != 0 {
		t.Fatalf("v = %d, want 0 (halted tx must not commit)", got)
	}
	if h := s.TotalStats().Halted; h != 1 {
		t.Fatalf("Halted = %d, want 1", h)
	}
	// The default manager aborts halted enemies, so a later pooled
	// transaction gets through the corpse.
	if err := s.Atomically(func(tx *stm.Tx) error { return incr(tx, v) }); err != nil {
		t.Fatalf("transaction behind the corpse: %v", err)
	}
	if got := v.Peek(); got != 1 {
		t.Fatalf("v = %d, want 1", got)
	}
}

// TestPanicInTransactionDoesNotWedge: a panic in the transactional
// function (recovered by the caller, as a request handler would)
// must neither leak the pooled session nor leave the attempt active
// and obstructing its Vars.
func TestPanicInTransactionDoesNotWedge(t *testing.T) {
	s := stm.New()
	v := stm.NewVar(0)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected the panic to propagate")
			}
		}()
		_ = s.Atomically(func(tx *stm.Tx) error {
			if err := incr(tx, v); err != nil {
				return err
			}
			panic("handler bug")
		})
	}()
	// The Var must not be wedged behind the orphaned attempt, and the
	// session must be back in the pool.
	if err := s.Atomically(func(tx *stm.Tx) error { return incr(tx, v) }); err != nil {
		t.Fatalf("transaction after recovered panic: %v", err)
	}
	if got := v.Peek(); got != 1 {
		t.Fatalf("v = %d, want 1 (panicked attempt must not commit)", got)
	}
}

// TestAtomicTyped: the typed entry point returns the committed
// attempt's result, and the zero T on error.
func TestAtomicTyped(t *testing.T) {
	s := stm.New()
	a := stm.NewVar(3)
	b := stm.NewVar(4)
	sum, err := stm.Atomic(s, func(tx *stm.Tx) (int, error) {
		av, err := stm.Read(tx, a)
		if err != nil {
			return 0, err
		}
		bv, err := stm.Read(tx, b)
		if err != nil {
			return 0, err
		}
		return av + bv, nil
	})
	if err != nil || sum != 7 {
		t.Fatalf("Atomic = (%d, %v), want (7, nil)", sum, err)
	}
	boom := errors.New("boom")
	got, err := stm.Atomic(s, func(tx *stm.Tx) (int, error) { return 42, boom })
	if err != boom || got != 0 {
		t.Fatalf("Atomic on error = (%d, %v), want (0, boom)", got, err)
	}
}

// TestUpdateErr covers the fallible update: reading another variable
// mid-transition, surfacing a user error exactly once with the private
// version unchanged, and retrying on enemy aborts propagated by a
// nested Read.
func TestUpdateErr(t *testing.T) {
	s := stm.New()
	balance := stm.NewVar(100)
	limit := stm.NewVar(50)

	// Happy path: the transition reads limit mid-update.
	withdraw := func(amount int) error {
		return s.Atomically(func(tx *stm.Tx) error {
			return stm.UpdateErr(tx, balance, func(bal int) (int, error) {
				lim, err := stm.Read(tx, limit)
				if err != nil {
					return 0, err
				}
				if bal-amount < -lim {
					return 0, fmt.Errorf("insufficient funds: %d - %d < -%d", bal, amount, lim)
				}
				return bal - amount, nil
			})
		})
	}
	if err := withdraw(120); err != nil {
		t.Fatal(err)
	}
	if got := balance.Peek(); got != -20 {
		t.Fatalf("balance = %d, want -20", got)
	}

	// Failing transition: surfaces once, leaves the balance alone.
	calls := 0
	err := s.Atomically(func(tx *stm.Tx) error {
		calls++
		return stm.UpdateErr(tx, balance, func(bal int) (int, error) {
			return 0, fmt.Errorf("no")
		})
	})
	if err == nil || err.Error() != "no" {
		t.Fatalf("err = %v, want 'no'", err)
	}
	if calls != 1 {
		t.Fatalf("failing UpdateErr ran %d times, want 1", calls)
	}
	if got := balance.Peek(); got != -20 {
		t.Fatalf("balance = %d after failed update, want -20 unchanged", got)
	}
}

// TestReadAllConsistent / TestSnapshotConsistent: writers move value
// between two vars keeping the sum constant; every multi-var read must
// observe the invariant.
func TestSnapshotConsistent(t *testing.T) {
	const total = 1000
	s := stm.New(stm.WithManagerFactory(func() stm.Manager { return politeManager{} }))
	a := stm.NewVar(total)
	b := stm.NewVar(0)
	var stopWriters atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stopWriters.Load() {
				if err := s.Atomically(func(tx *stm.Tx) error {
					if err := stm.Update(tx, a, func(v int) int { return v - 1 }); err != nil {
						return err
					}
					return stm.Update(tx, b, func(v int) int { return v + 1 })
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		vals, err := stm.Snapshot(s, a, b)
		if err != nil {
			t.Fatal(err)
		}
		if vals[0]+vals[1] != total {
			t.Fatalf("snapshot %v sums to %d, want %d — not consistent", vals, vals[0]+vals[1], total)
		}
	}
	// The in-transaction form composes with further reads.
	sums, err := stm.Atomic(s, func(tx *stm.Tx) ([]int, error) {
		return stm.ReadAll(tx, a, b)
	})
	if err != nil {
		t.Fatal(err)
	}
	if sums[0]+sums[1] != total {
		t.Fatalf("ReadAll %v sums to %d, want %d", sums, sums[0]+sums[1], total)
	}
	stopWriters.Store(true)
	wg.Wait()
}

// TestManagerFactoryPerSession: the factory runs once per pooled
// session — at most one instance per concurrent transaction, never
// zero — so managers stay per-stream the way the paper's model
// requires.
func TestManagerFactoryPerSession(t *testing.T) {
	var made atomic.Int64
	s := stm.New(stm.WithManagerFactory(func() stm.Manager {
		made.Add(1)
		return politeManager{}
	}))

	const goroutines, perG = 16, 30
	counter := stm.NewVar(0)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if err := s.Atomically(func(tx *stm.Tx) error { return incr(tx, counter) }); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := counter.Peek(); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
	if n := made.Load(); n == 0 || n > goroutines {
		t.Fatalf("factory ran %d times, want between 1 and %d (one per concurrent session)", n, goroutines)
	}
}

// TestNewNamedVarCloner: the named/deep-copy combination carries the
// name through String and keeps the Cloner's isolation.
func TestNewNamedVarCloner(t *testing.T) {
	deepCopy := func(sl []int) []int {
		c := make([]int, len(sl))
		copy(c, sl)
		return c
	}
	initial := []int{1, 2}
	v := stm.NewNamedVarCloner("scores", initial, deepCopy)
	if got := v.String(); got != "tobj(scores)" {
		t.Fatalf("String() = %q, want %q", got, "tobj(scores)")
	}
	initial[0] = 99
	if got := v.Peek(); got[0] != 1 {
		t.Fatalf("committed version aliases the constructor argument: %v", got)
	}
	s := stm.New()
	if err := s.Atomically(func(tx *stm.Tx) error {
		return stm.Update(tx, v, func(sl []int) []int { sl[1] = 20; return sl })
	}); err != nil {
		t.Fatal(err)
	}
	if got := v.Peek(); got[0] != 1 || got[1] != 20 {
		t.Fatalf("Peek = %v, want [1 20]", got)
	}
}
