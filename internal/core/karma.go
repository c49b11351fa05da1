package core

import (
	"math/rand/v2"
	"time"

	"repro/internal/stm"
)

// Karma estimates how much work a transaction has invested — one point
// of priority per object opened, accumulated across aborted attempts —
// and resolves conflicts in favour of the larger investment. A
// conflicting transaction A aborts enemy B once A's priority plus the
// number of attempts A has spent on this conflict exceeds B's
// priority, so even a low-priority transaction eventually wins by
// persistence. Between attempts it waits up to one quantum.
//
// The paper's Section 6 notes the theoretical weakness: a transaction
// can be starved by a stream of newcomers that each accumulate more
// karma between its retries, so Karma does not satisfy the
// pending-commit property.
type Karma struct {
	stm.BaseManager
	ep episode
}

// NewKarma returns a per-thread karma manager.
func NewKarma() *Karma { return &Karma{} }

// Opened implements Manager: each opened object is one unit of
// invested work. Karma intentionally does not reset priority in
// Begin: accumulated karma survives aborts (that is the whole point)
// and dies with the logical transaction on commit.
func (k *Karma) Opened(tx stm.Contender, write bool) {
	tx.AddPriority(1)
	k.ep.reset()
}

// ResolveConflict aborts the enemy when our investment plus
// persistence exceeds its investment.
func (k *Karma) ResolveConflict(me, enemy stm.Contender) (stm.Decision, time.Duration) {
	attempts := k.ep.next(enemy.Timestamp())
	if me.Priority()+int64(attempts) > enemy.Priority() {
		k.ep.reset()
		return stm.AbortOther, 0
	}
	return stm.Wait, quantum
}

// Eruption is Karma with pressure transfer: when a transaction blocks
// behind an enemy it adds its own momentum (priority) to the enemy's,
// so a transaction blocking many others accumulates their weight and
// "erupts" through its own conflicts quickly, unblocking the pile
// behind it.
type Eruption struct {
	stm.BaseManager
	ep episode
}

// NewEruption returns a per-thread eruption manager.
func NewEruption() *Eruption { return &Eruption{} }

// Opened implements Manager: opening gains momentum.
func (e *Eruption) Opened(tx stm.Contender, write bool) {
	tx.AddPriority(1)
	e.ep.reset()
}

// ResolveConflict transfers momentum to the blocking enemy, then
// behaves like Karma.
func (e *Eruption) ResolveConflict(me, enemy stm.Contender) (stm.Decision, time.Duration) {
	attempts := e.ep.next(enemy.Timestamp())
	if attempts == 1 {
		// New stand-off: push our momentum onto the transaction
		// blocking us, once per episode.
		enemy.AddPriority(me.Priority())
	}
	if me.Priority()+int64(attempts) > enemy.Priority() {
		e.ep.reset()
		return stm.AbortOther, 0
	}
	return stm.Wait, quantum
}

// Polka combines Polka's namesakes: POLite + KArma. Priorities are
// Karma's cumulative-opens investment, but instead of fixed quanta the
// loser waits for randomized exponentially growing intervals, and
// aborts the enemy once its attempts exceed the priority gap.
type Polka struct {
	stm.BaseManager
	rng *rand.Rand
	ep  episode

	// Base is the first backoff interval; it doubles per attempt.
	Base time.Duration
	// MaxExp caps the exponential growth of the backoff window.
	MaxExp int
}

// NewPolka returns a per-thread polka manager.
func NewPolka() *Polka {
	return &Polka{rng: newRNG(), Base: 2 * time.Microsecond, MaxExp: 8}
}

// Opened implements Manager: each opened object is one unit of
// invested work.
func (p *Polka) Opened(tx stm.Contender, write bool) {
	tx.AddPriority(1)
	p.ep.reset()
}

// ResolveConflict implements Karma's threshold with Polite's backoff.
func (p *Polka) ResolveConflict(me, enemy stm.Contender) (stm.Decision, time.Duration) {
	attempts := p.ep.next(enemy.Timestamp())
	if me.Priority()+int64(attempts) > enemy.Priority() {
		p.ep.reset()
		return stm.AbortOther, 0
	}
	return stm.Wait, upTo(p.rng, p.Base<<uint(min(attempts, p.MaxExp)))
}
