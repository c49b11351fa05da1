package core

import (
	"time"

	"repro/internal/stm"
)

// Greedy is the paper's contribution (Section 3). Transactions carry a
// timestamp taken when they first begin and retained across retries;
// an earlier timestamp is higher priority. When transaction A
// conflicts with active transaction B:
//
//	Rule 1: if B is lower priority than A, or B is waiting for another
//	        transaction, A aborts B.
//	Rule 2: if B is higher priority and not waiting, A waits (with its
//	        own waiting flag raised) until B commits, aborts, or starts
//	        waiting — at which point Rule 1 applies.
//
// Greedy satisfies the pending-commit property: at any time the
// running transaction with the earliest timestamp neither waits nor is
// ever aborted, so it runs uninterrupted to commit. Consequently every
// transaction commits within a bounded delay (Theorem 1) and the
// makespan of n concurrent transactions over s objects is within
// s(s+1)+2 of an optimal off-line list schedule (Theorem 9).
type Greedy struct {
	stm.BaseManager
}

// NewGreedy returns a per-thread greedy manager.
func NewGreedy() *Greedy { return &Greedy{} }

// ResolveConflict implements the two greedy rules. Rule 2's wait is
// unbounded: it is finite in the paper's model because transaction
// delays are finite.
func (g *Greedy) ResolveConflict(me, enemy stm.Contender) (stm.Decision, time.Duration) {
	if enemy.Timestamp() > me.Timestamp() || enemy.Waiting() {
		return stm.AbortOther, 0
	}
	return stm.Wait, 0
}

// GreedyTimeout is the Section 6 extension of Greedy for a model where
// transactions can halt undetectably. Rule 2's wait is bounded by a
// per-enemy timeout; when the timeout expires the waiter aborts the
// enemy even though it is higher priority. Each time that happens the
// timeout for that enemy doubles, so a slow-but-alive high-priority
// transaction is aborted only finitely often, while a crashed one
// cannot block others forever. This mirrors the recovery scheme of
// Scherer and Scott's timestamp manager.
type GreedyTimeout struct {
	stm.BaseManager
	base     time.Duration
	timeouts map[uint64]time.Duration
	ep       episode
}

// DefaultGreedyTimeout is the initial per-enemy patience of
// NewGreedyTimeout.
const DefaultGreedyTimeout = 100 * time.Microsecond

// NewGreedyTimeout returns a per-thread greedy manager with halted-
// transaction recovery and the default initial timeout.
func NewGreedyTimeout() *GreedyTimeout {
	return NewGreedyTimeoutWith(DefaultGreedyTimeout)
}

// NewGreedyTimeoutWith returns a GreedyTimeout whose initial per-enemy
// patience is base.
func NewGreedyTimeoutWith(base time.Duration) *GreedyTimeout {
	return &GreedyTimeout{base: base, timeouts: make(map[uint64]time.Duration)}
}

// Begin implements Manager: a new attempt starts a new stand-off.
func (g *GreedyTimeout) Begin(stm.Contender) { g.ep.reset() }

// Opened implements Manager; a successful open ends the stand-off.
func (g *GreedyTimeout) Opened(stm.Contender, bool) { g.ep.reset() }

// ResolveConflict implements the greedy rules with bounded waiting. A
// wait on a running enemy ends early only when the enemy commits,
// aborts or starts waiting, so being asked again about the same enemy,
// still older and running, means the timeout expired.
func (g *GreedyTimeout) ResolveConflict(me, enemy stm.Contender) (stm.Decision, time.Duration) {
	ts := enemy.Timestamp()
	if ts > me.Timestamp() || enemy.Waiting() {
		g.ep.reset()
		return stm.AbortOther, 0
	}
	patience, ok := g.timeouts[ts]
	if !ok {
		patience = g.base
		if len(g.timeouts) > 1<<12 {
			// The map tracks logical transactions, which are
			// short-lived; prune it rather than grow without bound.
			clear(g.timeouts)
		}
		g.timeouts[ts] = patience
	}
	if g.ep.next(ts) > 1 {
		// The enemy may have crashed: abort it and double our patience
		// with it in case it was merely slow.
		g.ep.reset()
		g.timeouts[ts] = patience * 2
		return stm.AbortOther, 0
	}
	return stm.Wait, patience
}
