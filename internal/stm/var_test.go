package stm_test

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/stm"
)

// TestVarRoundTrip drives a Var[T] through the full typed surface for
// a few payload shapes: initial value, Read, Write, Update, Peek.
func TestVarRoundTrip(t *testing.T) {
	s := stm.New()

	num := stm.NewVar(41)
	str := stm.NewVar("a")
	type point struct{ X, Y int }
	pt := stm.NewVar(point{X: 1, Y: 2})

	err := s.Atomically(func(tx *stm.Tx) error {
		n, err := stm.Read(tx, num)
		if err != nil {
			return err
		}
		if n != 41 {
			t.Errorf("Read(num) = %d, want 41", n)
		}
		if err := stm.Update(tx, num, func(v int) int { return v + 1 }); err != nil {
			return err
		}
		// Reads after writes see the private version.
		if n, err = stm.Read(tx, num); err != nil {
			return err
		}
		if n != 42 {
			t.Errorf("read-own-write = %d, want 42", n)
		}
		if err := stm.Write(tx, str, "b"); err != nil {
			return err
		}
		return stm.Update(tx, pt, func(p point) point { p.Y = 9; return p })
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := num.Peek(); got != 42 {
		t.Errorf("num.Peek() = %d, want 42", got)
	}
	if got := str.Peek(); got != "b" {
		t.Errorf("str.Peek() = %q, want %q", got, "b")
	}
	if got := pt.Peek(); got != (point{X: 1, Y: 9}) {
		t.Errorf("pt.Peek() = %+v", got)
	}
}

// TestVarZeroValue checks that a Var created from a zero T reads back
// the zero value, for value and pointer-bearing payloads alike.
func TestVarZeroValue(t *testing.T) {
	s := stm.New()
	type rec struct {
		N    int
		Next *stm.Var[int]
	}
	vi := stm.NewVar(0)
	vs := stm.NewVar("")
	vr := stm.NewVar(rec{})
	err := s.Atomically(func(tx *stm.Tx) error {
		n, err := stm.Read(tx, vi)
		if err != nil {
			return err
		}
		str, err := stm.Read(tx, vs)
		if err != nil {
			return err
		}
		r, err := stm.Read(tx, vr)
		if err != nil {
			return err
		}
		if n != 0 || str != "" || r != (rec{}) {
			t.Errorf("zero-value reads = (%d, %q, %+v)", n, str, r)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if vi.Peek() != 0 || vs.Peek() != "" || vr.Peek() != (rec{}) {
		t.Error("zero-value Peek disagrees")
	}
}

// TestVarAbortDiscardsWrites: a user error aborts the transaction and
// the typed writes never become visible.
func TestVarAbortDiscardsWrites(t *testing.T) {
	s := stm.New()
	v := stm.NewVar(7)
	boom := func(tx *stm.Tx) error {
		if err := stm.Write(tx, v, 99); err != nil {
			return err
		}
		return errTestBoom
	}
	if err := s.Atomically(boom); err != errTestBoom {
		t.Fatalf("Atomically = %v, want errTestBoom", err)
	}
	if got := v.Peek(); got != 7 {
		t.Fatalf("aborted write visible: %d", got)
	}
}

var errTestBoom = errTestError("boom")

type errTestError string

func (e errTestError) Error() string { return string(e) }

// TestVarUpdateContentionAllManagers runs the shared-counter workload
// through stm.Update under 8-way contention for every manager in the
// registry: no increment may be lost or duplicated under any policy.
func TestVarUpdateContentionAllManagers(t *testing.T) {
	const workers, perWorker = 8, 100
	for _, name := range core.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			factory, err := core.Factory(name)
			if err != nil {
				t.Fatal(err)
			}
			s := stm.New(stm.WithInterleavePeriod(2), stm.WithManagerFactory(factory))
			counter := stm.NewVar(0)
			var wg sync.WaitGroup
			errs := make(chan error, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perWorker; i++ {
						err := s.Atomically(func(tx *stm.Tx) error {
							return stm.Update(tx, counter, func(v int) int { return v + 1 })
						})
						if err != nil {
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
			if got := counter.Peek(); got != workers*perWorker {
				t.Fatalf("counter = %d, want %d (manager %s lost increments)", got, workers*perWorker, name)
			}
		})
	}
}

// TestVarClonerIsolation: with a Cloner installed, a writer's in-place
// mutation of indirect state is invisible to concurrent readers and to
// the committed version until commit; without one, the test documents
// that the shallow copy aliases the slice.
func TestVarClonerIsolation(t *testing.T) {
	s := stm.New()
	deep := stm.NewVarCloner([]int{1, 2, 3}, func(sl []int) []int {
		c := make([]int, len(sl))
		copy(c, sl)
		return c
	})

	// Mutate in place inside a transaction that then aborts: the
	// committed slice must be untouched.
	err := s.Atomically(func(tx *stm.Tx) error {
		if err := stm.Update(tx, deep, func(sl []int) []int {
			sl[0] = 100
			return sl
		}); err != nil {
			return err
		}
		return errTestBoom
	})
	if err != errTestBoom {
		t.Fatalf("Atomically = %v", err)
	}
	if got := deep.Peek()[0]; got != 1 {
		t.Fatalf("aborted in-place mutation leaked through Cloner: %d", got)
	}

	// The same mutation in a committing transaction takes effect.
	if err := s.Atomically(func(tx *stm.Tx) error {
		return stm.Update(tx, deep, func(sl []int) []int {
			sl[0] = 100
			return sl
		})
	}); err != nil {
		t.Fatal(err)
	}
	if got := deep.Peek()[0]; got != 100 {
		t.Fatalf("committed mutation lost: %d", got)
	}
}

// TestVarNamedAndObj covers the debugging surface: names flow through
// String, and naming a variable changes nothing else about it.
func TestVarNamedAndObj(t *testing.T) {
	v := stm.NewNamedVar("account", 5)
	if got := v.String(); got != "tobj(account)" {
		t.Errorf("String() = %q", got)
	}
	anon := stm.NewVar(5)
	if !strings.HasPrefix(anon.String(), "tobj(0x") {
		t.Errorf("anonymous String() = %q", anon.String())
	}
	s := stm.New()
	if err := s.Atomically(func(tx *stm.Tx) error {
		return stm.Update(tx, v, func(n int) int { return n + 1 })
	}); err != nil {
		t.Fatal(err)
	}
	if got := v.Peek(); got != 6 {
		t.Errorf("Peek = %d, want 6", got)
	}
}

// TestVarLazyMode: the typed facade composes with commit-time conflict
// detection unchanged.
func TestVarLazyMode(t *testing.T) {
	s := stm.New(stm.WithLazyConflicts())
	v := stm.NewVar(0)
	for i := 0; i < 5; i++ {
		if err := s.Atomically(func(tx *stm.Tx) error {
			return stm.Update(tx, v, func(n int) int { return n + 1 })
		}); err != nil {
			t.Fatal(err)
		}
	}
	if got := v.Peek(); got != 5 {
		t.Fatalf("lazy counter = %d, want 5", got)
	}
}

// TestWriteClonesNewValueOnly pins Write's fast path: replacing the
// whole value clones x exactly once (isolation from the caller's
// value) and never deep-copies the pre-image it is about to discard.
func TestWriteClonesNewValueOnly(t *testing.T) {
	s := stm.New()
	clones := 0
	v := stm.NewVarCloner([]int{1, 2}, func(sl []int) []int {
		clones++
		c := make([]int, len(sl))
		copy(c, sl)
		return c
	})
	clones = 0 // discount the constructor's clone of the initial value
	if err := s.Atomically(func(tx *stm.Tx) error {
		return stm.Write(tx, v, []int{9})
	}); err != nil {
		t.Fatal(err)
	}
	if clones != 1 {
		t.Fatalf("Write invoked the Cloner %d times, want exactly 1 (of x, not of the discarded pre-image)", clones)
	}
	if got := v.Peek(); len(got) != 1 || got[0] != 9 {
		t.Fatalf("Peek = %v, want [9]", got)
	}
	if err := s.Atomically(func(tx *stm.Tx) error {
		return stm.Update(tx, v, func(sl []int) []int { sl[0]++; return sl })
	}); err != nil {
		t.Fatal(err)
	}
	if clones != 2 {
		t.Fatalf("Update invoked the Cloner %d more times, want 1 (total 2, got %d)", clones-1, clones)
	}
	if got := v.Peek(); got[0] != 10 {
		t.Fatalf("Peek after Update = %v, want [10]", got)
	}
}

// TestWriteDoesNotAliasCaller: the committed and private versions must
// never alias the value the caller passed to Write. Without the
// Cloner copy of x, the in-transaction Update would mutate the
// caller's slice, so a retry after an enemy abort would replay the
// transaction against corrupted input — and external mutation of the
// slice after commit would corrupt the committed version.
func TestWriteDoesNotAliasCaller(t *testing.T) {
	s := stm.New()
	deepCopy := func(sl []int) []int {
		c := make([]int, len(sl))
		copy(c, sl)
		return c
	}
	v := stm.NewVarCloner([]int{0}, deepCopy)
	shared := []int{0}
	if err := s.Atomically(func(tx *stm.Tx) error {
		if err := stm.Write(tx, v, shared); err != nil {
			return err
		}
		// Mutates the transaction's private copy — must not reach
		// `shared`, or a retry of this function would see [1].
		return stm.Update(tx, v, func(sl []int) []int { sl[0]++; return sl })
	}); err != nil {
		t.Fatal(err)
	}
	if shared[0] != 0 {
		t.Fatalf("transactional Update mutated the caller's slice: %v", shared)
	}
	if got := v.Peek(); got[0] != 1 {
		t.Fatalf("Peek = %v, want [1]", got)
	}
	shared[0] = 99
	if got := v.Peek(); got[0] != 1 {
		t.Fatalf("committed version aliases the caller's slice: Peek = %v after external mutation", got)
	}
}

// TestNewVarClonerDoesNotAliasInitial: the initial committed version
// must be a deep copy of the constructor argument, for the same
// reason Write clones x.
func TestNewVarClonerDoesNotAliasInitial(t *testing.T) {
	initial := []int{1, 2, 3}
	v := stm.NewVarCloner(initial, func(sl []int) []int {
		c := make([]int, len(sl))
		copy(c, sl)
		return c
	})
	initial[0] = 99
	if got := v.Peek(); got[0] != 1 {
		t.Fatalf("initial committed version aliases the constructor argument: Peek = %v", got)
	}
}
