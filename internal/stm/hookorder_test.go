package stm_test

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/stm"
)

// TestHookedReadOnlyCommitOrdersAgainstWriters pins the read-only
// meaning of Tx.OnCommit. A writer is parked inside its commit hook —
// past its status CAS, so its value is already visible, with its
// stripes still held — and three readers run against it: a hooked
// reader of the same Var must not fire its hook until the writer's has
// returned, and then reports the writer's value; a hooked reader of a
// Var on another stripe, and a reader without a hook, are not delayed.
func TestHookedReadOnlyCommitOrdersAgainstWriters(t *testing.T) {
	for _, name := range core.Names() {
		for _, mode := range []string{"eager", "lazy"} {
			t.Run(name+"/"+mode, func(t *testing.T) {
				factory, err := core.Factory(name)
				if err != nil {
					t.Fatal(err)
				}
				opts := []stm.Option{stm.WithManagerFactory(factory)}
				if mode == "lazy" {
					opts = append(opts, stm.WithLazyConflicts())
				}
				s := stm.New(opts...)
				// Created back to back, so on neighbouring stripes.
				x, y := stm.NewVar(0), stm.NewVar(0)

				parked, release := make(chan struct{}), make(chan struct{})
				writerDone := make(chan error, 1)
				go func() {
					writerDone <- s.Atomically(func(tx *stm.Tx) error {
						n, err := stm.Read(tx, x)
						if err != nil {
							return err
						}
						tx.OnCommit(func() { close(parked); <-release })
						return stm.Write(tx, x, n+1)
					})
				}()
				await(t, parked, "writer never reached its commit hook")

				// read runs one read-only transaction over v in its own
				// goroutine, hooked or not, and reports the value read;
				// fired flips when the hook runs.
				read := func(v *stm.Var[int], hooked bool) (got <-chan int, fired *atomic.Bool) {
					out, fired := make(chan int, 1), new(atomic.Bool)
					go func() {
						n, err := stm.Atomic(s, func(tx *stm.Tx) (int, error) {
							if hooked {
								tx.OnCommit(func() { fired.Store(true) })
							}
							return stm.Read(tx, v)
						})
						if err != nil {
							t.Errorf("reader: %v", err)
						}
						out <- n
					}()
					return out, fired
				}

				plain, _ := read(x, false)
				if n := awaitInt(t, plain, "un-hooked reader was delayed by a writer in its hook"); n != 1 {
					t.Fatalf("un-hooked reader saw %d, want 1: a writer's value is visible from its status CAS on", n)
				}
				disjoint, disjointFired := read(y, true)
				awaitInt(t, disjoint, "hooked reader of a disjoint Var was delayed")
				if !disjointFired.Load() {
					t.Fatal("hooked reader of a disjoint Var committed without firing its hook")
				}

				same, sameFired := read(x, true)
				select {
				case n := <-same:
					t.Fatalf("hooked reader committed (saw %d) while the writer it read from was still in its hook", n)
				case <-time.After(20 * time.Millisecond):
				}
				if sameFired.Load() {
					t.Fatal("hooked reader's hook fired before the writer's returned")
				}
				close(release)
				if n := awaitInt(t, same, "hooked reader never committed after the writer's hook returned"); n != 1 {
					t.Fatalf("hooked reader saw %d, want the writer's 1", n)
				}
				if !sameFired.Load() {
					t.Fatal("hooked reader committed without firing its hook")
				}
				if err := <-writerDone; err != nil {
					t.Fatalf("writer: %v", err)
				}
			})
		}
	}
}

func await(t *testing.T, ch <-chan struct{}, msg string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatal(msg)
	}
}

func awaitInt(t *testing.T, ch <-chan int, msg string) int {
	t.Helper()
	select {
	case n := <-ch:
		return n
	case <-time.After(10 * time.Second):
		t.Fatal(msg)
		return 0
	}
}
