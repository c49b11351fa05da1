package stm

import (
	"fmt"
	"sync/atomic"
	"time"
)

// locator is the DSTM indirection record, and it is the version: every
// locator is the head of a cell (see cell in var.go) whose payload
// follows it in the same allocation, so a version is one allocation
// and a committed read touches the variable's slot and that cell only.
// The engine is untyped — one read set and one conflict protocol serve
// every Var[T] — and only the typed API, which made the cell, reaches
// the payload. The object's current committed version is determined by
// prev first and the owner's frozen status only when prev is set:
//
//	prev nil               -> this locator (owner nil, or committed and released)
//	owner committed        -> this locator
//	owner aborted          -> the pre-image, prev
//	owner active           -> the pre-image (the tentative payload is private)
//
// Ownership changes by installing a whole new locator with CAS. A
// locator's owner never changes, and its payload changes only while
// that owner is active, in place, by the owner, whose tentative
// version nobody else reads.
//
// The pre-image is held as a pointer to the locator that committed it
// (prev) and not as a second value, so that it can be let go: a
// committed owner's pre-image is dead, and the owner clears prev right
// after its status CAS and clock bump (Tx.releasePreimages). Were it
// kept — as DSTM's oldVal is — every written object would pin its
// previous version until its next write, and a version that holds a
// pointer pins whatever that reaches: in a Deque the popped predecessor
// run, whose own link pins its predecessor, so every run ever popped
// (TestDequeBoundedHeap). prev always points at a locator whose own
// owner is nil or committed, never through an aborted one, so the chain
// it keeps alive is one cell long.
//
// An install stores prev before the store or CAS that publishes the
// locator, and prev is cleared only after the owner's status CAS has
// succeeded, so a reader that loads prev nil knows the version is
// committed without loading the owner's descriptor.
type locator struct {
	owner *Tx
	prev  atomic.Pointer[locator]
}

// base returns the locator that is the committed version this locator
// records, which is stable provided the owner is not active.
func (l *locator) base() *locator {
	p := l.prev.Load()
	if p == nil || l.owner.Status() == StatusCommitted {
		return l
	}
	return p
}

// openBase is base for an open by tx, which also learns of an active
// owner: it returns the locator that is l's committed version and, when
// l's owner is still active, that owner as the enemy to resolve. A
// locator whose owner has committed but not yet released prev belongs
// to a writer that may not have bumped the commit clock, so validate's
// clock shortcut cannot be trusted to see that writer's other objects:
// reading this version next to an older read of one of them is a state
// that never existed. Zeroing validClock makes the open's validation
// scan, which finds the older read moved (DESIGN.md §1, *The
// CAS-to-bump window*).
func (tx *Tx) openBase(l *locator) (base *locator, enemy *Tx) {
	p := l.prev.Load()
	if p == nil {
		return l, nil
	}
	switch l.owner.Status() {
	case StatusActive:
		return p, l.owner
	case StatusCommitted:
		tx.sess.validClock = 0
		return l, nil
	}
	return p, nil
}

// tobj is the untyped core of a Var[T]: the locator slot, the commit
// stripe and the debugging label. Var embeds it, so read sets, locators
// and the flight recorder can name an object without knowing its
// payload type.
type tobj struct {
	loc atomic.Pointer[locator]
	// stripe indexes the commit-stripe lock guarding writer commits
	// that include this object (see commitStripe in stm.go). Stripes
	// are dealt round-robin from a process-wide counter at creation:
	// cheaper and more evenly spread than hashing the pointer, and
	// deterministic enough for tests to construct same-stripe and
	// distinct-stripe object pairs. Stripe indices are STM-independent
	// (a Var is not bound to an STM instance); each STM owns its own
	// lock array of the shared, fixed size.
	stripe uint32
	// name is an optional debugging label (see NewNamedVar).
	name string
}

// stripeSeq deals commit-stripe indices to new objects. commitStripes
// is a power of two, so uint32 wraparound keeps the deal uniform.
var stripeSeq atomic.Uint32

// nextStripe returns the commit-stripe index for a newly created
// transactional object. NewVar must assign it, or the object silently
// joins stripe 0 and writer commits touching it re-serialize.
func nextStripe() uint32 { return stripeSeq.Add(1) % commitStripes }

// String identifies the object for debugging.
func (o *tobj) String() string {
	if o.name != "" {
		return "tobj(" + o.name + ")"
	}
	return fmt.Sprintf("tobj(%p)", o)
}

// committed returns the object's current committed version. The value
// is exact at some instant during the call; with an active owner the
// answer is the owner's pre-image, which is correct because an active
// owner's tentative version is private.
func (o *tobj) committed() *locator {
	return o.loc.Load().base()
}

// openWrite acquires the object for writing on behalf of tx and
// returns the transaction's private version. The conflict protocol is
// the paper's: if an active enemy owns the object, tx's contention
// manager chooses between aborting the enemy and waiting, and the STM
// retries until the object is free or tx itself dies.
//
// A fresh acquisition installs mk(tx, base), a new cell owned by tx
// made from the committed version base: a copy of it for a
// read-modify-write, or the new value outright for the typed Write,
// which skips a copy it would immediately discard. When the
// transaction already owns the object, the existing private version is
// returned and the caller overwrites it in place.
func (o *tobj) openWrite(tx *Tx, mk func(owner *Tx, base *locator) *locator) (*locator, error) {
	if tx.sess.stm.lazy {
		return o.openWriteLazy(tx, mk)
	}
	for spin := 0; ; spin++ {
		if err := tx.step(); err != nil {
			return nil, err
		}
		l := o.loc.Load()
		if l.owner == tx {
			return l, nil // already ours (write after write)
		}
		base, enemy := tx.openBase(l)
		if enemy != nil {
			if err := resolve(tx, enemy, o); err != nil {
				return nil, err
			}
			continue
		}
		// Owner is nil or frozen: base is stable for as long as l
		// stays installed, and our CAS fails if it does not.
		nl := mk(tx, base)
		nl.prev.Store(base)
		if !o.loc.CompareAndSwap(l, nl) {
			tx.backoff(spin)
			continue
		}
		tx.sess.writeStripes = append(tx.sess.writeStripes, o.stripe)
		tx.sess.installed = append(tx.sess.installed, nl)
		tx.sess.opens++
		tx.sess.mgr.Opened(tx, true)
		tx.sess.stats.opens.Add(1)
		if rec := tx.sess.rec; rec != nil {
			rec.open(o, true)
		}
		tx.maybeYield()
		// Writing this object may form part of an inconsistent view;
		// early validation keeps the transaction opaque.
		if err := tx.checkOpaque(); err != nil {
			return nil, err
		}
		return nl, nil
	}
}

// openRead records the object's committed version in tx's read set and
// returns it. Reads are invisible to writers, but an active writer is
// a conflict for the reader (as in DSTM): the contention manager
// arbitrates before the read can proceed.
func (o *tobj) openRead(tx *Tx) (*locator, error) {
	for {
		// The status check follows the locator load, as in checkOpaque.
		// An enemy takes an object this attempt wrote only after
		// aborting the attempt, so a still-active attempt that finds
		// another owner here never wrote the object, and the repeated
		// read below cannot hand back the version from before the
		// attempt's own write.
		l := o.loc.Load()
		if err := tx.step(); err != nil {
			return nil, err
		}
		// Read own write.
		if lw, ok := tx.sess.lazyWrites[o]; ok {
			return lw, nil
		}
		if l.owner == tx {
			return l, nil
		}
		// Repeated read: return the recorded version for a stable view.
		if v, ok := tx.lookupRead(o); ok {
			return v, nil
		}
		// A lazy enemy is a writer inside its commit (see lazy.go): its
		// pre-image is read without consulting the manager.
		base, enemy := tx.openBase(l)
		if enemy != nil && !tx.sess.stm.lazy {
			if err := resolve(tx, enemy, o); err != nil {
				return nil, err
			}
			continue
		}
		tx.recordRead(o, base)
		tx.sess.opens++
		tx.sess.mgr.Opened(tx, false)
		tx.sess.stats.opens.Add(1)
		if rec := tx.sess.rec; rec != nil {
			rec.open(o, false)
		}
		tx.maybeYield()
		if err := tx.checkOpaque(); err != nil {
			return nil, err
		}
		return base, nil
	}
}

// checkOpaque ends every successful open. An owned object's pre-image
// is not in the read set, so validate cannot see an enemy that aborted
// this attempt, took the object and committed; only the status can
// (DESIGN.md §1, *Opacity after an open*).
func (tx *Tx) checkOpaque() error {
	if !tx.validate() {
		return ErrAborted
	}
	return tx.step()
}

func (tx *Tx) noteConflict() { tx.sess.stats.conflicts.Add(1) }

// resolve runs one round of the contention-management protocol between
// tx and enemy over object o: the manager rules, and the engine carries
// the ruling out, aborting one side or waiting (wait). The ruling and
// the wait are timed together into WaitNs, the policy-chosen waiting
// that distinguishes managers with and without progress guarantees.
// The same measurement accrues to the logical transaction's own
// counter (Tx.WaitNs) and, on sampled transactions, to a conflict
// event naming the enemy and the ruling.
func resolve(tx, enemy *Tx, o *tobj) error {
	tx.noteConflict()
	t0 := time.Now()
	enemyWaiting := enemy.Waiting()
	d, bound := tx.sess.mgr.ResolveConflict(tx, enemy)
	switch d {
	case AbortOther:
		enemy.Abort()
		tx.sess.stats.enemyAborts.Add(1)
	case AbortSelf:
		tx.setCause(CauseEnemyAbort)
		tx.Abort()
	case Wait:
		tx.wait(enemy, enemyWaiting, t0, bound)
	default:
		return fmt.Errorf("stm: contention manager returned invalid decision %d", d)
	}
	dt := int64(time.Since(t0))
	tx.sess.stats.waitNs.Add(dt)
	tx.shared.waitNs.Add(dt)
	if rec := tx.sess.rec; rec != nil {
		rec.conflict(o, enemy, d, dt)
	}
	return tx.step()
}

// wait is the engine's one wait on a Wait ruling. With tx's waiting
// flag raised it polls, paced by backoff, until the enemy is no longer
// active, the enemy starts waiting (enemyWaiting is the flag as it
// stood before the ruling, so a start in between counts), tx itself is
// aborted, or bound, if positive, has elapsed since t0.
func (tx *Tx) wait(enemy *Tx, enemyWaiting bool, t0 time.Time, bound time.Duration) {
	tx.waiting.Store(true)
	for spin := 0; enemy.Status() == StatusActive && tx.Status() == StatusActive; spin++ {
		w := enemy.Waiting()
		if w && !enemyWaiting {
			break
		}
		enemyWaiting = w
		if bound > 0 && time.Since(t0) >= bound {
			break
		}
		backoff(spin)
	}
	tx.waiting.Store(false)
}
