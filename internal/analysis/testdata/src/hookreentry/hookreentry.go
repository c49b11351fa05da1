// Package hookreentry is the hookreentry analyzer's fixture: commit
// hooks that re-enter the engine directly or through same-package
// helpers (flagged), outward-only hooks (clean), and //stm:reentrant
// suppressions.
package hookreentry

import (
	"repro/internal/stm"
)

var (
	s = stm.New()
	v = stm.NewVar(0)
)

func use(...any) {}

func direct() {
	_ = s.Atomically(func(tx *stm.Tx) error {
		tx.OnCommit(func() { // want `OnCommit hook calls stm.Atomically`
			_ = s.Atomically(func(tx2 *stm.Tx) error { return nil })
		})
		return nil
	})
}

func noop(tx *stm.Tx) error { return nil }

func reenters() { _ = s.Atomically(noop) }

// registered by name: the diagnostic still lands on the registration.
func byName() {
	_ = s.Atomically(func(tx *stm.Tx) error {
		tx.OnCommit(reenters) // want `OnCommit hook calls stm.Atomically`
		return nil
	})
}

// transitive: hook → helper → helper → engine.
func chain1() { chain2() }
func chain2() { _, _ = stm.Snapshot(s, v) }

func transitive() {
	_ = s.Atomically(func(tx *stm.Tx) error {
		tx.OnCommit(chain1) // want `OnCommit hook calls stm.Snapshot`
		return nil
	})
}

// storeOp: typed Var operations need a live attempt; a committed
// hook has none.
func storeOp() {
	_ = s.Atomically(func(tx *stm.Tx) error {
		tx.OnCommit(func() { // want `OnCommit hook calls stm.Write`
			_ = stm.Write(tx, v, 1)
		})
		return nil
	})
}

// readOnly: a transaction that only reads fires its hook with the
// stripes of its read set held, so the rule is the writer's: no
// transaction from inside it.
func readOnly() {
	_ = s.Atomically(func(tx *stm.Tx) error {
		if _, err := stm.Read(tx, v); err != nil {
			return err
		}
		tx.OnCommit(func() { // want `OnCommit hook calls stm.Atomically`
			_ = s.Atomically(func(tx2 *stm.Tx) error { _, err := stm.Read(tx2, v); return err })
		})
		return nil
	})
}

// clean: hooks hand data outward — enqueue, stash, count.
func outwardOnly() {
	var ticket int
	_ = s.Atomically(func(tx *stm.Tx) error {
		tx.OnCommit(func() { ticket = enqueue() })
		return nil
	})
	use(ticket)
}

func enqueue() int { return 1 }

// spawning is legal: the goroutine runs outside the stripe-held
// window, so re-entry from it cannot self-deadlock.
func viaGoroutine() {
	_ = s.Atomically(func(tx *stm.Tx) error {
		tx.OnCommit(func() {
			go func() {
				_ = s.Atomically(func(tx2 *stm.Tx) error { return nil })
			}()
		})
		return nil
	})
}

// suppressed: a reasoned directive on the registration line.
func suppressed() {
	_ = s.Atomically(func(tx *stm.Tx) error {
		//stm:reentrant(fixture: deliberate deadlock reproduction)
		tx.OnCommit(func() {
			_ = s.Atomically(func(tx2 *stm.Tx) error { return nil })
		})
		return nil
	})
}
