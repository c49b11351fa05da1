package stm

import (
	"runtime"
	"time"
)

// Decision is a contention manager's verdict on a conflict.
type Decision int32

const (
	// Wait tells the STM to re-examine the object: the manager has
	// already performed whatever waiting or backoff its policy calls
	// for before returning.
	Wait Decision = iota
	// AbortOther tells the STM to abort the enemy transaction.
	AbortOther
	// AbortSelf tells the STM to abort the calling transaction. Used by
	// managers that prefer suicide to waiting (none of the classical
	// managers do, but the interface supports it for experimentation).
	AbortSelf
)

// String returns the conventional name of the decision.
func (d Decision) String() string {
	switch d {
	case Wait:
		return "wait"
	case AbortOther:
		return "abort-other"
	case AbortSelf:
		return "abort-self"
	default:
		return "invalid"
	}
}

// Manager is the contention-manager interface, the module the paper
// holds responsible for progress. One Manager instance serves one
// pooled session (see WithManagerFactory), one transaction at a time,
// mirroring the per-thread managers of DSTM and SXM: managers are
// highly decentralized and decide conflicts by comparing only the
// two transactions' public states (timestamp, status, waiting flag,
// priority), never by coordinating with third parties.
//
// ResolveConflict is called when transaction me is about to open an
// object that enemy, a distinct active transaction, has open for
// writing. The manager may block inside ResolveConflict (that is what
// "waiting" means); it should poll enemy.Status and me.Status while it
// does, and it must eventually return in the model where transaction
// delays are finite. Whatever it returns, the STM re-reads the object
// and, if the conflict persists, asks again.
//
// The notification methods (Begin, Opened, Committed, Aborted) let
// managers such as Karma and Eruption maintain priority estimates.
// They are called from the goroutine running the owning session only.
type Manager interface {
	// Begin is called when an attempt of a logical transaction starts,
	// including each retry after an abort.
	Begin(tx *Tx)
	// Opened is called after tx successfully opens an object; write
	// reports whether the open was for writing.
	Opened(tx *Tx, write bool)
	// ResolveConflict decides what to do about an open-time conflict
	// between me (the caller's transaction) and enemy (an active
	// transaction holding the object).
	ResolveConflict(me, enemy *Tx) Decision
	// Committed is called after tx commits.
	Committed(tx *Tx)
	// Aborted is called after an attempt of tx aborts, before the retry
	// (if any) begins.
	Aborted(tx *Tx)
}

// ManagerFactory constructs a fresh Manager instance. The STM calls it
// once per pooled session (see WithManagerFactory); benchmarks that
// pin Threads call it once per worker. Managers stay as decentralized
// as the paper requires either way: one instance per concurrent
// transaction stream, no coordination between instances.
type ManagerFactory func() Manager

// defaultManager backs STM.Atomically when no WithManagerFactory is
// configured: wait politely with growing backoff, but give up on an
// enemy after a bounded number of rounds and abort it, so a halted or
// descheduled enemy cannot obstruct forever. The registry managers in
// internal/core implement the paper's actual policies; this one only
// has to be safe and live for casual use of the pooled API.
type defaultManager struct {
	BaseManager
	spin int
}

// Opened implements Manager: a successful open ends the conflict
// episode, so patience resets.
func (m *defaultManager) Opened(*Tx, bool) { m.spin = 0 }

// ResolveConflict implements bounded politeness.
func (m *defaultManager) ResolveConflict(me, enemy *Tx) Decision {
	if enemy.Halted() {
		return AbortOther
	}
	if m.spin++; m.spin > 48 {
		m.spin = 0
		return AbortOther
	}
	Backoff(m.spin)
	return Wait
}

// BaseManager is a no-op implementation of the notification methods of
// Manager, for embedding in managers that only care about
// ResolveConflict.
type BaseManager struct{}

// Begin implements Manager.
func (BaseManager) Begin(*Tx) {}

// Opened implements Manager.
func (BaseManager) Opened(*Tx, bool) {}

// Committed implements Manager.
func (BaseManager) Committed(*Tx) {}

// Aborted implements Manager.
func (BaseManager) Aborted(*Tx) {}

// Backoff yields the processor and, past the first few spins, sleeps
// for short, linearly growing intervals. It is the waiting primitive
// shared by the contention managers; spin is the number of times the
// caller has already backed off in the current episode.
//
// On a single-CPU host a pure spin loop would starve the enemy
// transaction of the processor, so yielding is load-bearing here, not
// just polite.
func Backoff(spin int) {
	switch {
	case spin < 4:
		runtime.Gosched()
	case spin < 16:
		time.Sleep(time.Duration(spin) * time.Microsecond)
	case spin < 4096:
		time.Sleep(16 * time.Microsecond)
	default:
		// A very long wait (for example on a halted enemy) should not
		// burn the processor the live transactions need.
		time.Sleep(time.Millisecond)
	}
}
