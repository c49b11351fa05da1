package core

import (
	"time"

	"repro/internal/stm"
)

// Timestamp is Scherer and Scott's timestamp manager. Each transaction
// is stamped when it begins (here: the STM's retained timestamp, which
// strengthens the original — S&S re-stamp on every attempt); on a
// conflict the younger transaction waits for the older one in a series
// of fixed quanta, presuming it dead and aborting it after MaxWaits
// quanta, while an older transaction kills a younger enemy outright.
// Unlike Greedy it does not abort an enemy that is itself waiting, so
// chains of waiters may all sit out their full patience, and the paper
// notes only a diminished (not zero) livelock probability for the
// family of timeout-based managers.
type Timestamp struct {
	stm.BaseManager
	ep episode
	// MaxWaits is the number of quanta spent waiting for an older
	// enemy before presuming it halted and aborting it.
	MaxWaits int
}

// NewTimestamp returns a per-thread timestamp manager.
func NewTimestamp() *Timestamp { return &Timestamp{MaxWaits: 32} }

// Opened implements Manager; a successful open ends the episode.
func (t *Timestamp) Opened(tx stm.Contender, write bool) { t.ep.reset() }

// ResolveConflict implements oldest-wins with bounded patience.
func (t *Timestamp) ResolveConflict(me, enemy stm.Contender) (stm.Decision, time.Duration) {
	if enemy.Timestamp() > me.Timestamp() {
		return stm.AbortOther, 0
	}
	if t.ep.next(enemy.Timestamp()) > t.MaxWaits {
		t.ep.reset()
		return stm.AbortOther, 0
	}
	return stm.Wait, quantum
}

// KillBlocked aborts an enemy as soon as the enemy is itself blocked
// (waiting on a third transaction), and otherwise waits with bounded
// patience before killing it anyway. The insight — waiting
// transactions should not obstruct running ones — is the same one
// Greedy's Rule 1 turns into a provable guarantee.
type KillBlocked struct {
	stm.BaseManager
	ep episode
	// MaxWaits bounds patience with a non-blocked enemy.
	MaxWaits int
}

// NewKillBlocked returns a per-thread killblocked manager.
func NewKillBlocked() *KillBlocked { return &KillBlocked{MaxWaits: 16} }

// Opened implements Manager; a successful open ends the episode.
func (k *KillBlocked) Opened(tx stm.Contender, write bool) { k.ep.reset() }

// ResolveConflict kills blocked enemies immediately, others after
// MaxWaits quanta.
func (k *KillBlocked) ResolveConflict(me, enemy stm.Contender) (stm.Decision, time.Duration) {
	if enemy.Waiting() || k.ep.next(enemy.Timestamp()) > k.MaxWaits {
		k.ep.reset()
		return stm.AbortOther, 0
	}
	return stm.Wait, quantum
}

// QueueOnBlock makes the conflicting transaction wait for the enemy to
// finish, first-come first-served. As Scherer and Scott observe (and
// the paper repeats), pure queueing is prone to dependency cycles —
// A waits for B while B waits for A — so a timeout breaks the cycle by
// aborting the enemy; with the timeout disabled (MaxWaits <= 0) it is
// the paper's always-wait manager, whose deadlock on a cycle the
// scheduling simulator demonstrates.
type QueueOnBlock struct {
	stm.BaseManager
	ep episode
	// MaxWaits bounds queueing patience in quanta; values <= 0 mean
	// wait forever, reproducing the manager's dependency-cycle hazard.
	MaxWaits int
}

// NewQueueOnBlock returns a per-thread queueing manager with a cycle-
// breaking timeout.
func NewQueueOnBlock() *QueueOnBlock { return &QueueOnBlock{MaxWaits: 64} }

// Opened implements Manager; a successful open ends the episode.
func (q *QueueOnBlock) Opened(tx stm.Contender, write bool) { q.ep.reset() }

// ResolveConflict waits in line behind the enemy.
func (q *QueueOnBlock) ResolveConflict(me, enemy stm.Contender) (stm.Decision, time.Duration) {
	if q.MaxWaits <= 0 {
		return stm.Wait, 0
	}
	if q.ep.next(enemy.Timestamp()) > q.MaxWaits {
		q.ep.reset()
		return stm.AbortOther, 0
	}
	return stm.Wait, quantum
}

// Kindergarten enforces turn-taking ("you went first last time, now I
// go"). Each transaction keeps a list of enemies in whose favour it
// has already stepped aside. On a conflict with a new enemy it waits
// one quantum for the enemy to finish and, if it has not, aborts itself
// and retries (giving way); a conflict with an enemy already on the
// list is resolved by aborting the enemy.
type Kindergarten struct {
	stm.BaseManager
	yielded map[uint64]bool
	lastTx  uint64
	ep      episode
}

// NewKindergarten returns a per-thread kindergarten manager.
func NewKindergarten() *Kindergarten {
	return &Kindergarten{yielded: make(map[uint64]bool)}
}

// Begin implements Manager: the give-way list is per logical
// transaction, so it resets when a new transaction starts (but not on
// retries of the same one — forgetting past yields would defeat the
// turn-taking).
func (k *Kindergarten) Begin(tx stm.Contender) {
	k.ep.reset()
	if tx.Timestamp() != k.lastTx {
		k.lastTx = tx.Timestamp()
		clear(k.yielded)
	}
}

// Opened implements Manager; a successful open ends the episode.
func (k *Kindergarten) Opened(tx stm.Contender, write bool) { k.ep.reset() }

// ResolveConflict steps aside once per enemy, then kills.
func (k *Kindergarten) ResolveConflict(me, enemy stm.Contender) (stm.Decision, time.Duration) {
	ts := enemy.Timestamp()
	if k.ep.next(ts) > 1 {
		// The enemy outlasted our step aside: give way.
		k.ep.reset()
		return stm.AbortSelf, 0
	}
	if k.yielded[ts] {
		k.ep.reset()
		return stm.AbortOther, 0
	}
	k.yielded[ts] = true
	return stm.Wait, quantum
}
