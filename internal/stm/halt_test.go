package stm

import (
	"errors"
	"testing"
)

// TestHaltOnPooledSession is the failure-injection contract with no
// pinned thread to lean on: a tx handed out of a blocked fn is halted
// from another goroutine, fn's next open reports it, the corpse stays
// active and obstructing until an enemy's manager aborts it, and the
// session goes back to the pool without the corpse's descriptor or its
// logical-transaction record — enemies still interrogate both — so the
// next transaction on that session starts on fresh ones.
func TestHaltOnPooledSession(t *testing.T) {
	s := New()
	v := NewVar(0)
	incr := func(x int) int { return x + 1 }

	handed := make(chan *Tx)
	resume := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- s.Atomically(func(tx *Tx) error {
			if err := Update(tx, v, incr); err != nil {
				return err
			}
			handed <- tx
			<-resume
			return Update(tx, v, incr)
		})
	}()
	corpse := <-handed
	corpse.Halt() // valid: fn is blocked at resume
	close(resume)
	if err := <-done; !errors.Is(err, ErrHalted) {
		t.Fatalf("halted transaction returned %v, want ErrHalted", err)
	}
	if corpse.Status() != StatusActive {
		t.Fatalf("corpse status = %v, want active (halting is not aborting)", corpse.Status())
	}
	if got := v.Peek(); got != 0 {
		t.Fatalf("v = %d, want 0: the corpse's write is uncommitted", got)
	}
	if len(s.free) != 1 || len(s.sessions) != 1 {
		t.Fatalf("pool holds %d of %d sessions, want 1 of 1", len(s.free), len(s.sessions))
	}
	if sess := s.free[0]; sess.freeTx != nil || sess.freeShared != nil {
		t.Fatal("session kept the corpse's descriptor or record for reuse")
	}
	corpseShared, corpseTS := corpse.shared, corpse.Timestamp()

	// The only idle session is the corpse's, so the enemy runs on it.
	var enemy *Tx
	if err := s.Atomically(func(tx *Tx) error {
		enemy = tx
		return Update(tx, v, incr)
	}); err != nil {
		t.Fatalf("enemy: %v", err)
	}
	if enemy == corpse || enemy.shared == corpseShared {
		t.Fatal("the session's next transaction reused the corpse's descriptor or record")
	}
	if corpse.Timestamp() != corpseTS || corpse.Status() != StatusAborted {
		t.Fatalf("corpse is now %v, want ts %d aborted by the enemy", corpse, corpseTS)
	}
	if got := v.Peek(); got != 1 {
		t.Fatalf("v = %d, want 1", got)
	}
	st := s.TotalStats()
	if st.Halted != 1 || st.Commits != 1 || st.Conflicts == 0 || st.EnemyAborts != 1 {
		t.Fatalf("stats %+v: want 1 halted, 1 commit, the corpse met as a conflict and aborted once", st)
	}
	if len(s.sessions) != 1 {
		t.Fatalf("%d sessions, want 1: the halted session was not reused", len(s.sessions))
	}
}
