package core

import (
	"math/rand/v2"
	"time"

	"repro/internal/stm"
)

// Aggressive always aborts the enemy. It is livelock-prone: two
// transactions repeatedly opening the same objects can abort each
// other forever; no deterministic progress guarantee holds (Section
// 6). It often performs surprisingly well when conflicts are rare
// because it never waits.
type Aggressive struct {
	stm.BaseManager
}

// NewAggressive returns a per-thread aggressive manager.
func NewAggressive() *Aggressive { return &Aggressive{} }

// ResolveConflict implements Manager by always killing the enemy.
func (a *Aggressive) ResolveConflict(me, enemy stm.Contender) (stm.Decision, time.Duration) {
	return stm.AbortOther, 0
}

// Polite is the exponential-backoff manager (the "Backoff" series of
// the paper's figures). On conflict it waits for a randomized interval
// that doubles with each consecutive clash with the same enemy; after
// a bounded number of backoffs it aborts the enemy. Probabilistically
// well-behaved when transactions have similar lengths, but offers no
// deterministic guarantee, and long transactions suffer against short
// ones.
type Polite struct {
	stm.BaseManager
	rng *rand.Rand
	ep  episode

	// MaxTries is how many randomized backoffs precede aborting the
	// enemy; the default (8) follows Scherer and Scott.
	MaxTries int
	// Base is the first backoff interval; it doubles per attempt.
	Base time.Duration
}

// NewPolite returns a per-thread polite (exponential backoff) manager.
func NewPolite() *Polite {
	return &Polite{rng: newRNG(), MaxTries: 8, Base: 2 * time.Microsecond}
}

// ResolveConflict implements randomized exponential backoff.
func (p *Polite) ResolveConflict(me, enemy stm.Contender) (stm.Decision, time.Duration) {
	n := p.ep.next(enemy.Timestamp())
	if n > p.MaxTries {
		p.ep.reset()
		return stm.AbortOther, 0
	}
	return stm.Wait, upTo(p.rng, p.Base<<uint(n))
}

// Opened implements Manager; a successful open ends the episode.
func (p *Polite) Opened(tx stm.Contender, write bool) { p.ep.reset() }

// Randomized flips a coin on every conflict: abort the enemy with
// probability P, otherwise wait up to a random fraction of a quantum.
// Simple and livelock-free with probability 1, but with no
// deterministic guarantee and poor worst-case behaviour.
type Randomized struct {
	stm.BaseManager
	rng *rand.Rand
	// P is the probability of aborting the enemy on a conflict.
	P float64
}

// NewRandomized returns a per-thread randomized manager with abort
// probability 1/2.
func NewRandomized() *Randomized { return &Randomized{rng: newRNG(), P: 0.5} }

// Seed restarts the coin's pseudo-random stream at seed, so that a run
// can be reproduced (the scheduling simulator's randomized study).
func (r *Randomized) Seed(seed uint64) { r.rng = rand.New(rand.NewPCG(seed, seed^0xdeadbeef)) }

// ResolveConflict implements the coin flip.
func (r *Randomized) ResolveConflict(me, enemy stm.Contender) (stm.Decision, time.Duration) {
	if r.rng.Float64() < r.P {
		return stm.AbortOther, 0
	}
	return stm.Wait, upTo(r.rng, quantum)
}
