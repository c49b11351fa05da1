// Package core implements the contention managers studied in
// Guerraoui, Herlihy and Pochon, "Toward a Theory of Transactional
// Contention Managers": the paper's greedy manager and its Section 6
// timeout extension, together with the Scherer–Scott family the paper
// benchmarks against (Aggressive, Polite/Backoff, Randomized,
// Timestamp, Karma, Eruption, Kindergarten, KillBlocked, QueueOnBlock,
// Polka).
//
// A contention manager is the module responsible for progress in an
// obstruction-free STM: whenever transaction A is about to perform an
// access that conflicts with an active transaction B, A's manager
// decides whether to abort B or to pause and give B a chance to
// finish. Managers are per-thread and strictly decentralized — they
// decide using only the two transactions' public state (stm.Contender).
// A manager only rules; the STM performs every wait, and the
// scheduling simulator (internal/sched) runs the same managers.
//
// The managers comparable in the paper's figures are available through
// the registry (Factory, MustFactory, New, Names).
package core

import (
	"math/rand/v2"
	"sync/atomic"
	"time"
)

// quantum bounds one wait of the managers that wait in fixed slices
// (Karma, Eruption, Timestamp, KillBlocked, QueueOnBlock,
// Kindergarten) and counts their patience: each ruling is asked again
// once its slice has passed. The wait also ends early on the enemy's
// outcome, so a slice costs little when the enemy finishes.
const quantum = 5 * time.Microsecond

var rngSeq atomic.Uint64

// newRNG returns a per-manager pseudo-random source. Managers are
// per-thread, so the source needs no locking; distinct managers get
// distinct streams.
func newRNG() *rand.Rand {
	n := rngSeq.Add(1)
	return rand.New(rand.NewPCG(n, n^0x9e3779b97f4a7c15))
}

// upTo returns a uniformly random duration in (0, max].
func upTo(rng *rand.Rand, max time.Duration) time.Duration {
	if max <= 0 {
		max = time.Microsecond
	}
	return time.Duration(1 + rng.Int64N(int64(max)))
}

// episode tracks consecutive ResolveConflict calls against the same
// enemy transaction, so that managers can count how long the current
// stand-off has lasted. The counter resets when the enemy changes or
// when the conflict resolves (the next successful open).
type episode struct {
	enemy    uint64
	attempts int
}

// next bumps and returns the attempt count for a conflict with the
// enemy with the given timestamp (its logical transaction's identity).
func (e *episode) next(enemyTS uint64) int {
	if e.enemy != enemyTS {
		e.enemy = enemyTS
		e.attempts = 0
	}
	e.attempts++
	return e.attempts
}

// reset clears the episode (called once the conflict is resolved).
func (e *episode) reset() { e.enemy, e.attempts = 0, 0 }
