package core

import (
	"time"

	"repro/internal/metrics"
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

// ResolveConflict implements the two greedy rules.
func (g *Greedy) ResolveConflict(me, enemy *stm.Tx) stm.Decision {
	if enemy.Timestamp() > me.Timestamp() || enemy.Waiting() {
		return stm.AbortOther
	}
	// Rule 2: enemy is older (higher priority) and running; wait until
	// it commits, aborts or starts waiting. The wait is finite in the
	// paper's model because transaction delays are finite.
	me.SetWaiting(true)
	defer me.SetWaiting(false)
	for spin := 0; enemy.Status() == stm.StatusActive && !enemy.Waiting(); spin++ {
		if me.Status() != stm.StatusActive {
			break // an enemy of ours aborted us while we waited
		}
		stm.Backoff(spin)
	}
	return stm.Wait
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

// ResolveConflict implements the greedy rules with bounded waiting.
func (g *GreedyTimeout) ResolveConflict(me, enemy *stm.Tx) stm.Decision {
	ts := enemy.Timestamp()
	if ts > me.Timestamp() || enemy.Waiting() {
		return stm.AbortOther
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
	me.SetWaiting(true)
	defer me.SetWaiting(false)
	deadline := metrics.Mono() + patience
	for spin := 0; enemy.Status() == stm.StatusActive && !enemy.Waiting(); spin++ {
		if me.Status() != stm.StatusActive {
			return stm.Wait
		}
		if metrics.Mono() > deadline {
			// The enemy may have crashed: abort it and double our
			// patience with it in case it was merely slow.
			g.timeouts[ts] = patience * 2
			return stm.AbortOther
		}
		stm.Backoff(spin)
	}
	return stm.Wait
}
