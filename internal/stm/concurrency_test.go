package stm_test

import (
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/stm"
)

// runCounterStress has workers concurrently increment a shared
// transactional counter and checks that no increment is lost or
// duplicated — the basic serializability smoke test, run through the
// goroutine-agnostic pooled surface.
func runCounterStress(t *testing.T, mgr stm.ManagerFactory, workers, perWorker int) {
	t.Helper()
	s := stm.New(stm.WithManagerFactory(mgr))
	obj := stm.NewVar(0)
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
	want := workers * perWorker
	if got := counterValue(t, obj); got != want {
		t.Fatalf("counter = %d, want %d", got, want)
	}
	if c := s.TotalStats().Commits; c != int64(want) {
		t.Fatalf("commits = %d, want %d", c, want)
	}
}

func TestCounterStressAggressive(t *testing.T) {
	runCounterStress(t, func() stm.Manager { return aggressiveManager{} }, 8, 200)
}

func TestCounterStressPolite(t *testing.T) {
	runCounterStress(t, func() stm.Manager { return politeManager{} }, 8, 200)
}

// TestTwoObjectInvariant checks serializability across objects: every
// transaction moves one unit from a to b, so a+b is invariant and no
// interleaving may expose a state where the sum differs.
func TestTwoObjectInvariant(t *testing.T) {
	const workers, perWorker, initial = 6, 150, 10_000
	s := worldOf(aggressiveManager{})
	a := stm.NewVar(initial)
	b := stm.NewVar(0)

	var violations sync.Map
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				err := s.Atomically(func(tx *stm.Tx) error {
					var av int
					if err := stm.Update(tx, a, func(v int) int { av = v; return v - 1 }); err != nil {
						return err
					}
					return stm.Update(tx, b, func(v int) int {
						if av+v != initial {
							violations.Store(id, av+v)
						}
						return v + 1
					})
				})
				if err != nil {
					violations.Store(id, err)
				}
			}
		}(w)
	}
	wg.Wait()
	violations.Range(func(k, v any) bool {
		t.Fatalf("worker %v observed violation: %v", k, v)
		return false
	})
	got := a.Peek() + b.Peek()
	if got != initial {
		t.Fatalf("a+b = %d, want %d", got, initial)
	}
	if moved := b.Peek(); moved != workers*perWorker {
		t.Fatalf("b = %d, want %d", moved, workers*perWorker)
	}
}

// TestOpacityBeforeClockBump: a writer's versions are visible from its
// status CAS on, but the commit clock moves only afterwards. A reader
// that read x before the writer committed x and y, and opens y inside
// that window, must not go on with the mixed view x=0 y=1: validate's
// clock shortcut would accept it, so the open itself has to notice the
// unbumped commit and scan.
func TestOpacityBeforeClockBump(t *testing.T) {
	s := stm.New()
	x, y := stm.NewVar(0), stm.NewVar(0)
	attempt := 0
	err := s.Atomically(func(tx *stm.Tx) error {
		attempt++
		xv, err := stm.Read(tx, x)
		if err != nil {
			return err
		}
		if attempt == 1 {
			stm.CommitUnbumped(1, x, y)
		}
		yv, err := stm.Read(tx, y)
		if attempt == 1 && err == nil {
			t.Errorf("attempt 1 opened y with no error and saw x=%d y=%d", xv, yv)
		}
		if err == nil && xv != yv {
			t.Errorf("attempt %d saw x=%d y=%d", attempt, xv, yv)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if attempt != 2 {
		t.Errorf("%d attempts, want 2", attempt)
	}
}

// TestReadersSeeConsistentSnapshots runs writers that keep x == y and
// readers that assert it; any observed x != y inside a committed
// read-only transaction is a serializability bug.
func TestReadersSeeConsistentSnapshots(t *testing.T) {
	const writers, readers, perWorker = 4, 4, 200
	// Aggressive all round: writers kill each other and readers kill the
	// writers they meet between the two increments.
	s := worldOf(aggressiveManager{})
	x := stm.NewVar(0)
	y := stm.NewVar(0)

	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
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
	type pair struct{ x, y int }
	seen := make(chan pair, readers*perWorker)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// The snapshot is consistent by construction.
				vals, err := stm.Atomic(s, func(tx *stm.Tx) ([2]int, error) {
					xv, err := stm.Read(tx, x)
					if err != nil {
						return [2]int{}, err
					}
					yv, err := stm.Read(tx, y)
					if err != nil {
						return [2]int{}, err
					}
					return [2]int{xv, yv}, nil
				})
				if err != nil {
					errs <- err
					return
				}
				seen <- pair{vals[0], vals[1]}
			}
		}()
	}
	wg.Wait()
	close(errs)
	close(seen)
	for err := range errs {
		t.Fatal(err)
	}
	for p := range seen {
		if p.x != p.y {
			t.Fatalf("committed read-only transaction observed x=%d y=%d; want equal", p.x, p.y)
		}
	}
}

// TestQuickBankConservation is a property test: arbitrary sequences of
// transfers between arbitrary accounts conserve the total balance.
func TestQuickBankConservation(t *testing.T) {
	property := func(seedAmounts []uint8, transfers []uint16) bool {
		if len(seedAmounts) == 0 {
			return true
		}
		s := worldOf(aggressiveManager{})
		accounts := make([]*stm.Var[int], len(seedAmounts))
		total := 0
		for i, amt := range seedAmounts {
			accounts[i] = stm.NewVar(int(amt))
			total += int(amt)
		}
		for _, tr := range transfers {
			from := int(tr>>8) % len(accounts)
			to := int(tr&0xff) % len(accounts)
			amount := int(tr % 7)
			if from == to {
				continue
			}
			err := s.Atomically(func(tx *stm.Tx) error {
				if err := stm.Update(tx, accounts[from], func(v int) int { return v - amount }); err != nil {
					return err
				}
				return stm.Update(tx, accounts[to], func(v int) int { return v + amount })
			})
			if err != nil {
				return false
			}
		}
		got := 0
		for _, acct := range accounts {
			got += acct.Peek()
		}
		return got == total
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickStatusStringTotal pins the Status and Decision String
// methods (exhaustive over valid values plus an invalid one).
func TestQuickStatusStringTotal(t *testing.T) {
	cases := map[stm.Status]string{
		stm.StatusActive:    "active",
		stm.StatusCommitted: "committed",
		stm.StatusAborted:   "aborted",
		stm.Status(99):      "invalid",
	}
	for st, want := range cases {
		if got := st.String(); got != want {
			t.Errorf("Status(%d).String() = %q, want %q", st, got, want)
		}
	}
	dcases := map[stm.Decision]string{
		stm.Wait:         "wait",
		stm.AbortOther:   "abort-other",
		stm.AbortSelf:    "abort-self",
		stm.Decision(99): "invalid",
	}
	for d, want := range dcases {
		if got := d.String(); got != want {
			t.Errorf("Decision(%d).String() = %q, want %q", d, got, want)
		}
	}
}
