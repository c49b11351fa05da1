package stm

import (
	"testing"
	"time"
)

// TestWaitEnds drives the engine's one wait on a Wait ruling between
// two bare descriptors: it must hold the caller's waiting flag raised
// while the enemy runs, end on each of the enemy's outcomes, on the
// caller's own abort and on its bound, and lower the flag on the way
// out.
func TestWaitEnds(t *testing.T) {
	for _, tc := range []struct {
		name string
		// enemyWaiting is the enemy's flag when the ruling was made.
		enemyWaiting bool
		bound        time.Duration
		// end is what ends the wait; nil leaves the enemy running, so
		// only the bound can.
		end func(me, enemy *Tx)
	}{
		{name: "enemy commits", end: func(_, enemy *Tx) { enemy.commit() }},
		{name: "enemy aborts", end: func(_, enemy *Tx) { enemy.Abort() }},
		{name: "enemy starts waiting", end: func(_, enemy *Tx) { enemy.waiting.Store(true) }},
		{name: "waiting enemy commits", enemyWaiting: true, end: func(_, enemy *Tx) { enemy.commit() }},
		{name: "caller aborted", end: func(me, _ *Tx) { me.Abort() }},
		{name: "bound on halted enemy", bound: 20 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			me, enemy := &Tx{}, &Tx{}
			enemy.waiting.Store(tc.enemyWaiting)
			if tc.end == nil {
				enemy.Halt()
			}
			t0 := time.Now()
			done := make(chan time.Duration, 1)
			go func() {
				me.wait(enemy, tc.enemyWaiting, t0, tc.bound)
				done <- time.Since(t0)
			}()
			if tc.end != nil {
				select {
				case <-done:
					t.Fatal("the wait ended while the enemy ran")
				case <-time.After(5 * time.Millisecond):
				}
				if !me.Waiting() {
					t.Fatal("the caller's waiting flag is down during the wait")
				}
				tc.end(me, enemy)
			}
			select {
			case waited := <-done:
				if waited < tc.bound {
					t.Fatalf("the wait ended after %v, before its bound %v", waited, tc.bound)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("the wait did not end")
			}
			if me.Waiting() {
				t.Fatal("the caller's waiting flag stayed up after the wait")
			}
		})
	}
}
