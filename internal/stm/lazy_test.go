package stm_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/stm"
)

func TestLazyBasicCommit(t *testing.T) {
	s := stm.New(stm.WithLazyConflicts())
	obj := stm.NewVar(0)
	if err := s.Atomically(func(tx *stm.Tx) error { return incr(tx, obj) }); err != nil {
		t.Fatal(err)
	}
	if got := obj.Peek(); got != 1 {
		t.Fatalf("counter = %d, want 1", got)
	}
}

func TestLazyReadOwnWrite(t *testing.T) {
	s := stm.New(stm.WithLazyConflicts())
	obj := stm.NewVar(10)
	err := s.Atomically(func(tx *stm.Tx) error {
		if err := incr(tx, obj); err != nil {
			return err
		}
		got, err := stm.Read(tx, obj)
		if err != nil {
			return err
		}
		if got != 11 {
			t.Errorf("read own lazy write saw %d, want 11", got)
		}
		// Writing again continues from the same buffer, not from a
		// fresh clone of the committed version.
		return stm.Update(tx, obj, func(v int) int {
			if v != 11 {
				t.Errorf("second write started from %d, want the buffered 11", v)
			}
			return v + 1
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := obj.Peek(); got != 12 {
		t.Fatalf("committed %d, want 12", got)
	}
}

func TestLazyWritesInvisibleUntilCommit(t *testing.T) {
	s := stm.New(stm.WithLazyConflicts())
	obj := stm.NewVar(0)

	held := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		first := true
		_ = s.Atomically(func(tx *stm.Tx) error {
			if err := incr(tx, obj); err != nil {
				return err
			}
			if first {
				first = false
				close(held)
				<-release
			}
			return nil
		})
	}()
	<-held
	// Mid-flight, the committed version is untouched and no locator
	// conflict exists: a reader proceeds without consulting any
	// contention manager.
	if got := obj.Peek(); got != 0 {
		t.Fatalf("uncommitted lazy write visible: %d", got)
	}
	err := s.Atomically(func(tx *stm.Tx) error {
		got, err := stm.Read(tx, obj)
		if err != nil {
			return err
		}
		if got != 0 {
			t.Errorf("reader saw uncommitted lazy write: %d", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	close(release)
	wg.Wait()
	if got := obj.Peek(); got != 1 {
		t.Fatalf("after commit counter = %d, want 1", got)
	}
}

func TestLazyFirstCommitterWins(t *testing.T) {
	s := stm.New(stm.WithLazyConflicts())
	obj := stm.NewVar(0)

	held := make(chan struct{})
	release := make(chan struct{})
	attempts := 0
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = s.Atomically(func(tx *stm.Tx) error {
			attempts++
			if err := incr(tx, obj); err != nil {
				return err
			}
			if attempts == 1 {
				close(held)
				<-release
			}
			return nil
		})
	}()
	<-held
	// The winner commits while the loser is mid-flight.
	if err := s.Atomically(func(tx *stm.Tx) error { return incr(tx, obj) }); err != nil {
		t.Fatal(err)
	}
	close(release)
	wg.Wait()
	if attempts < 2 {
		t.Fatalf("loser committed without retrying (attempts=%d); commit-time validation failed to catch the conflict", attempts)
	}
	if got := obj.Peek(); got != 2 {
		t.Fatalf("counter = %d, want 2", got)
	}
	// The winner validated against nothing newer, so the one
	// commit-time conflict on record is the loser's.
	if s.TotalStats().Conflicts == 0 {
		t.Fatal("loser recorded no commit-time conflict")
	}
}

func TestLazyCounterStress(t *testing.T) {
	s := stm.New(stm.WithLazyConflicts(), stm.WithInterleavePeriod(2))
	obj := stm.NewVar(0)
	const workers, perWorker = 6, 150
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if err := s.Atomically(func(tx *stm.Tx) error { return incr(tx, obj) }); err != nil {
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
	if got := obj.Peek(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
}

func TestLazySnapshotConsistency(t *testing.T) {
	// Writers keep x == y; readers must never commit a view with
	// x != y even though each commit writes two objects (the status
	// CAS publishes both at once).
	s := stm.New(stm.WithLazyConflicts(), stm.WithInterleavePeriod(2))
	x := stm.NewVar(0)
	y := stm.NewVar(0)
	const writers, readers, per = 3, 3, 120
	var wg sync.WaitGroup
	bad := make(chan [2]int, readers*per)
	errs := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := s.Atomically(func(tx *stm.Tx) error {
					if err := incr(tx, x); err != nil {
						return err
					}
					return incr(tx, y)
				}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				var got [2]int
				if err := s.Atomically(func(tx *stm.Tx) error {
					xv, err := stm.Read(tx, x)
					if err != nil {
						return err
					}
					yv, err := stm.Read(tx, y)
					if err != nil {
						return err
					}
					got = [2]int{xv, yv}
					return nil
				}); err != nil {
					errs <- err
					return
				}
				if got[0] != got[1] {
					bad <- got
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	close(bad)
	for err := range errs {
		t.Fatal(err)
	}
	for v := range bad {
		t.Fatalf("reader committed inconsistent snapshot x=%d y=%d", v[0], v[1])
	}
}

func TestLazyNeverConsultsManager(t *testing.T) {
	s := worldOf(countingManager{t: t}, stm.WithLazyConflicts(), stm.WithInterleavePeriod(1))
	obj := stm.NewVar(0)
	const workers, per = 4, 60
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				_ = s.Atomically(func(tx *stm.Tx) error { return incr(tx, obj) })
			}
		}()
	}
	wg.Wait()
}

// countingManager fails the test if ResolveConflict is ever reached in
// lazy mode.
type countingManager struct {
	stm.BaseManager
	t *testing.T
}

func (m countingManager) ResolveConflict(me, enemy stm.Contender) (stm.Decision, time.Duration) {
	m.t.Errorf("ResolveConflict called in lazy mode")
	return stm.AbortOther, 0
}

// TestLazyCommitWindowReadsPreImage parks a lazy writer of x and y
// inside its commit, after it has acquired both objects and before its
// status CAS, so both carry it as their active owner. A lazy reader
// that meets it there takes both pre-images without consulting its
// manager and commits at once; after the writer's CAS it reads both
// new values.
func TestLazyCommitWindowReadsPreImage(t *testing.T) {
	parked := make(chan struct{})
	release := make(chan struct{})
	s := worldOf(countingManager{t: t}, stm.WithLazyConflicts(), stm.WithCommitHook(func() {
		close(parked)
		<-release
	}))
	x := stm.NewVar(0)
	y := stm.NewVar(0)
	read := func() (pair [2]int, attempts int, err error) {
		err = s.Atomically(func(tx *stm.Tx) error {
			attempts++
			var err error
			if pair[0], err = stm.Read(tx, x); err != nil {
				return err
			}
			pair[1], err = stm.Read(tx, y)
			return err
		})
		return pair, attempts, err
	}
	wrote := make(chan error, 1)
	go func() {
		wrote <- s.Atomically(func(tx *stm.Tx) error {
			if err := stm.Write(tx, x, 1); err != nil {
				return err
			}
			return stm.Write(tx, y, 1)
		})
	}()
	<-parked
	type result struct {
		pair     [2]int
		attempts int
		err      error
	}
	got := make(chan result, 1)
	go func() {
		pair, attempts, err := read()
		got <- result{pair, attempts, err}
	}()
	select {
	case r := <-got:
		if r.err != nil || r.pair != [2]int{0, 0} || r.attempts != 1 {
			t.Errorf("reader in the commit window: %v after %d attempts, err %v; want [0 0] after 1", r.pair, r.attempts, r.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("reader blocked on a lazy writer parked before its status CAS")
	}
	close(release)
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
	if pair, _, err := read(); err != nil || pair != [2]int{1, 1} {
		t.Fatalf("after the writer's commit the reader saw %v, err %v; want [1 1]", pair, err)
	}
}
