package stm_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/stm"
)

func TestSwapReturnsPrevious(t *testing.T) {
	s := stm.New()
	v := stm.NewVar("old")
	prev, err := stm.Atomic(s, func(tx *stm.Tx) (string, error) {
		return stm.Swap(tx, v, "new")
	})
	if err != nil || prev != "old" {
		t.Fatalf("Swap = %q, %v; want \"old\", nil", prev, err)
	}
	if got := v.Peek(); got != "new" {
		t.Fatalf("after Swap, Peek = %q, want \"new\"", got)
	}
	// Swap after a write in the same transaction sees the private
	// version, not the committed one.
	prev, err = stm.Atomic(s, func(tx *stm.Tx) (string, error) {
		if err := stm.Write(tx, v, "mid"); err != nil {
			return "", err
		}
		return stm.Swap(tx, v, "final")
	})
	if err != nil || prev != "mid" {
		t.Fatalf("Swap after Write = %q, %v; want \"mid\", nil", prev, err)
	}
	if got := v.Peek(); got != "final" {
		t.Fatalf("Peek = %q, want \"final\"", got)
	}
}

func TestSwapAppliesCloner(t *testing.T) {
	s := stm.New()
	clone := func(xs []int) []int { return append([]int(nil), xs...) }
	v := stm.NewVarCloner([]int{1}, clone)
	mine := []int{2, 3}
	if _, err := stm.Atomic(s, func(tx *stm.Tx) ([]int, error) {
		return stm.Swap(tx, v, mine)
	}); err != nil {
		t.Fatal(err)
	}
	mine[0] = 99 // must not reach the committed version
	if got := v.Peek(); got[0] != 2 {
		t.Fatalf("committed version aliases caller slice: %v", got)
	}
}

func TestCompareAndSwap(t *testing.T) {
	s := stm.New()
	v := stm.NewVar(10)
	swapped, err := stm.Atomic(s, func(tx *stm.Tx) (bool, error) {
		return stm.CompareAndSwap(tx, v, 10, 20)
	})
	if err != nil || !swapped {
		t.Fatalf("CAS(10->20) = %v, %v; want true, nil", swapped, err)
	}
	if got := v.Peek(); got != 20 {
		t.Fatalf("Peek = %d, want 20", got)
	}
	swapped, err = stm.Atomic(s, func(tx *stm.Tx) (bool, error) {
		return stm.CompareAndSwap(tx, v, 10, 30)
	})
	if err != nil || swapped {
		t.Fatalf("CAS with stale expectation = %v, %v; want false, nil", swapped, err)
	}
	if got := v.Peek(); got != 20 {
		t.Fatalf("failed CAS changed the value to %d", got)
	}
}

// TestCompareAndSwapFailureIsReadOnly pins the no-op path's cost: a
// failed compare records only a read, so the transaction commits
// read-only and never obstructs the variable.
func TestCompareAndSwapFailureIsReadOnly(t *testing.T) {
	s := stm.New()
	v := stm.NewVar(1)
	if err := s.Atomically(func(tx *stm.Tx) error {
		ok, err := stm.CompareAndSwap(tx, v, 42, 43)
		if err != nil {
			return err
		}
		if ok {
			return errors.New("stale compare succeeded")
		}
		if got := tx.Opens(); got != 1 {
			return errors.New("failed CAS opened more than the read")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestCompareAndSwapContended runs the classic CAS counter under
// contention: every increment goes through a read of the current value
// and a CompareAndSwap from it, so the final count proves both the
// compare and the swap were transactional.
func TestCompareAndSwapContended(t *testing.T) {
	s := stm.New()
	v := stm.NewVar(0)
	const goroutines, perG = 8, 200
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				errs[g] = s.Atomically(func(tx *stm.Tx) error {
					cur, err := stm.Read(tx, v)
					if err != nil {
						return err
					}
					ok, err := stm.CompareAndSwap(tx, v, cur, cur+1)
					if err != nil {
						return err
					}
					if !ok {
						return errors.New("CAS failed against own read — isolation broken")
					}
					return nil
				})
				if errs[g] != nil {
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := v.Peek(); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
}

func TestAtomic2(t *testing.T) {
	s := stm.New()
	v := stm.NewVar(7)
	got, ok, err := stm.Atomic2(s, func(tx *stm.Tx) (int, bool, error) {
		x, err := stm.Read(tx, v)
		return x, x > 0, err
	})
	if err != nil || !ok || got != 7 {
		t.Fatalf("Atomic2 = %d, %v, %v; want 7, true, nil", got, ok, err)
	}
	// Errors surface and zero both results.
	boom := errors.New("boom")
	got, ok, err = stm.Atomic2(s, func(tx *stm.Tx) (int, bool, error) {
		return 5, true, boom
	})
	if !errors.Is(err, boom) || got != 0 || ok {
		t.Fatalf("Atomic2 error path = %d, %v, %v; want 0, false, boom", got, ok, err)
	}
}

// openCounter counts the manager's Opened notifications for one
// watched attempt.
type openCounter struct {
	politeManager
	watch  *stm.Tx
	opened int
}

func (m *openCounter) Opened(tx stm.Contender, _ bool) {
	if tx == m.watch {
		m.opened++
	}
}

// TestReadSetAcrossInlineBoundary crosses the read set's slice/overflow
// boundary: a transaction reading more variables than InlineReads must
// still validate and commit a consistent snapshot; a repeated read
// must return the recorded version — not the committed one — on both
// sides of the boundary; and Opens and the manager's Opened must count
// each object once however often and from whichever side it is
// re-read.
func TestReadSetAcrossInlineBoundary(t *testing.T) {
	const n = 2*stm.InlineReads + 8 // the last reads land in the overflow map
	mgr := &openCounter{}
	s := stm.New(stm.WithManagerFactory(func() stm.Manager { return mgr }))
	vars := make([]*stm.Var[int], n)
	for i := range vars {
		vars[i] = stm.NewVar(i)
	}
	attempts := 0
	seen := make([]int, n)
	if err := s.Atomically(func(tx *stm.Tx) error {
		attempts++
		mgr.watch, mgr.opened = tx, 0
		// overwrite commits a new version of vars[i] behind tx's back,
		// which dooms the attempt; until it notices, reread must still
		// return what tx recorded. Attempt 1 is doomed while the set
		// is all inline, attempt 2 once it has overflowed, attempt 3
		// commits.
		overwrite := func(during, i int) error {
			if attempts != during {
				return nil
			}
			return s.Atomically(func(o *stm.Tx) error { return stm.Write(o, vars[i], 1000+i) })
		}
		reread := func(i int) error {
			x, err := stm.Read(tx, vars[i])
			if err != nil {
				return err
			}
			if x != seen[i] {
				return fmt.Errorf("attempt %d: repeated read of vars[%d] = %d, want the recorded %d", attempts, i, x, seen[i])
			}
			return nil
		}
		for i, v := range vars {
			x, err := stm.Read(tx, v)
			if err != nil {
				return err
			}
			seen[i] = x
			if i == stm.InlineReads/2 {
				// The set is still inline.
				if err := overwrite(1, 0); err != nil {
					return err
				}
				if err := reread(0); err != nil {
					return err
				}
			}
		}
		// Overflowed: an inline entry and a map entry.
		if err := overwrite(2, n-1); err != nil {
			return err
		}
		for _, i := range []int{0, n - 1, 0} {
			if err := reread(i); err != nil {
				return err
			}
		}
		if got := tx.Opens(); got != n {
			return fmt.Errorf("Opens() = %d after %d distinct reads and 4 repeats, want %d", got, n, n)
		}
		if mgr.opened != n {
			return fmt.Errorf("manager heard %d Opened calls, want %d", mgr.opened, n)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Both stale attempts must have failed validation and retried.
	if attempts != 3 || seen[0] != 1000 || seen[n-1] != 1000+n-1 {
		t.Fatalf("committed on attempt %d having read %d and %d; want attempt 3 reading the overwritten 1000 and %d", attempts, seen[0], seen[n-1], 1000+n-1)
	}
	for _, i := range []int{0, n - 1} {
		if err := s.Atomically(func(o *stm.Tx) error { return stm.Write(o, vars[i], i) }); err != nil {
			t.Fatal(err)
		}
	}
	// A writer invalidating an entry must abort the reader's commit
	// wherever it sits: snapshot consistency cannot depend on which side
	// of the boundary the read landed.
	sums := make(chan int, 2)
	release := make(chan struct{})
	go func() {
		sum, err := stm.Atomic(s, func(tx *stm.Tx) (int, error) {
			total := 0
			for i, v := range vars {
				x, err := stm.Read(tx, v)
				if err != nil {
					return 0, err
				}
				if i == 0 {
					// Let the writer commit mid-scan on the first pass.
					select {
					case <-release:
					default:
						close(release)
					}
				}
				total += x
			}
			return total, nil
		})
		if err != nil {
			sums <- -1
			return
		}
		sums <- sum
	}()
	<-release
	if err := s.Atomically(func(tx *stm.Tx) error {
		// Invalidate an entry on each side of the boundary.
		if err := stm.Update(tx, vars[1], func(x int) int { return x + 1000 }); err != nil {
			return err
		}
		return stm.Update(tx, vars[n-1], func(x int) int { return x + 1000 })
	}); err != nil {
		t.Fatal(err)
	}
	want1 := n * (n - 1) / 2
	want2 := want1 + 2000
	if got := <-sums; got != want1 && got != want2 {
		t.Fatalf("scan sum = %d, want %d (before) or %d (after) — torn snapshot", got, want1, want2)
	}
}
