package stm

import (
	"runtime"
	"time"
)

// Decision is a contention manager's verdict on a conflict.
type Decision int32

const (
	// Wait tells the STM to wait for the enemy (see Manager) and then
	// re-examine the object.
	Wait Decision = iota
	// AbortOther tells the STM to abort the enemy transaction.
	AbortOther
	// AbortSelf tells the STM to abort the calling transaction, which
	// then retries. Kindergarten rules it to give way to an enemy it
	// has not yet yielded to.
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

// Contender is all a contention manager sees of a transaction: the
// public state the paper's decentralized managers decide from. *Tx
// satisfies it, and so does the scheduling simulator's transaction, so
// one manager runs in both.
type Contender interface {
	// Timestamp is the logical transaction's identity and age: smaller
	// is older is higher priority.
	Timestamp() uint64
	// Waiting reports whether the transaction is waiting for an enemy.
	Waiting() bool
	// Priority is the manager-maintained priority, which persists
	// across retries.
	Priority() int64
	// AddPriority adds to Priority; it may be called on an enemy.
	AddPriority(delta int64)
	// Halted reports whether failure injection has halted the
	// transaction.
	Halted() bool
}

// Manager is the contention-manager interface, the module the paper
// holds responsible for progress. One Manager instance serves one
// pooled session (see WithManagerFactory), one transaction at a time,
// mirroring the per-thread managers of DSTM and SXM: managers are
// highly decentralized and decide conflicts by comparing only the
// two transactions' public states (timestamp, waiting flag,
// priority), never by coordinating with third parties.
//
// ResolveConflict is called when transaction me is about to open an
// object that enemy, a distinct active transaction, has open for
// writing. It only decides: it never blocks, polls a status or sets a
// flag. On a Wait ruling the STM raises me's waiting flag and waits
// until the enemy is no longer active, the enemy starts waiting, me is
// aborted, or bound (if positive) has elapsed; bound is ignored for
// the other rulings. Whatever the ruling, the STM then re-reads the
// object and, if the conflict persists, asks again.
//
// The notification methods (Begin, Opened, Committed, Aborted) let
// managers such as Karma and Eruption maintain priority estimates.
// They are called from the goroutine running the owning session only.
type Manager interface {
	// Begin is called when an attempt of a logical transaction starts,
	// including each retry after an abort.
	Begin(tx Contender)
	// Opened is called after tx successfully opens an object; write
	// reports whether the open was for writing.
	Opened(tx Contender, write bool)
	// ResolveConflict rules on an open-time conflict between me (the
	// caller's transaction) and enemy (an active transaction holding
	// the object).
	ResolveConflict(me, enemy Contender) (d Decision, bound time.Duration)
	// Committed is called after tx commits.
	Committed(tx Contender)
	// Aborted is called after an attempt of tx aborts, before the retry
	// (if any) begins.
	Aborted(tx Contender)
}

// ManagerFactory constructs a fresh Manager instance. The STM calls it
// once per pooled session (see WithManagerFactory), so managers stay
// as decentralized as the paper requires: one instance per concurrent
// transaction stream, no coordination between instances.
type ManagerFactory func() Manager

// defaultManager backs STM.Atomically when no WithManagerFactory is
// configured: wait politely in growing slices, but give up on an enemy
// after a bounded number of rounds and abort it, so a halted or
// descheduled enemy cannot obstruct forever. The registry managers in
// internal/core implement the paper's actual policies; this one only
// has to be safe and live for casual use of the pooled API.
type defaultManager struct {
	BaseManager
	spin int
}

// Opened implements Manager: a successful open ends the conflict
// episode, so patience resets.
func (m *defaultManager) Opened(Contender, bool) { m.spin = 0 }

// ResolveConflict implements bounded politeness.
func (m *defaultManager) ResolveConflict(me, enemy Contender) (Decision, time.Duration) {
	if enemy.Halted() {
		return AbortOther, 0
	}
	if m.spin++; m.spin > 48 {
		m.spin = 0
		return AbortOther, 0
	}
	return Wait, time.Duration(min(m.spin, 16)) * time.Microsecond
}

// BaseManager is a no-op implementation of the notification methods of
// Manager, for embedding in managers that only care about
// ResolveConflict.
type BaseManager struct{}

// Begin implements Manager.
func (BaseManager) Begin(Contender) {}

// Opened implements Manager.
func (BaseManager) Opened(Contender, bool) {}

// Committed implements Manager.
func (BaseManager) Committed(Contender) {}

// Aborted implements Manager.
func (BaseManager) Aborted(Contender) {}

// backoff yields the processor and, past the first few spins, sleeps
// for short, linearly growing intervals. It paces the engine's polling
// loops: the wait on a Wait ruling and the acquisition CAS retry; spin
// is the number of times the caller has already backed off in the
// current episode.
//
// On a single-CPU host a pure spin loop would starve the enemy
// transaction of the processor, so yielding is load-bearing here, not
// just polite.
func backoff(spin int) {
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
