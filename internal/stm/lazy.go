package stm

// Lazy conflict detection (Harris & Fraser style), the STM design the
// paper's Section 6 contrasts with eager, open-time detection:
//
//	"Some STM implementations ... discover conflicts when transactions
//	 commit, not while they are executing. Contention managers do not
//	 seem well-suited to these kinds of STMs, and the question of
//	 ensuring progress for this kind of STM design remains largely
//	 unexplored."
//
// With WithLazyConflicts, opening for writing buffers the tentative
// version privately instead of installing a locator, so running
// transactions never see each other: no open-time conflicts arise and
// the contention manager is never consulted. All conflicts surface at
// commit, where the loser has already executed in full — the wasted
// work that motivates eager detection plus contention management, and
// the comparison BenchmarkLazyVsEager measures.
//
// Commit is the one stripe-held writer commit (tryCommit). A lazy
// writer acquires there: with its write set's stripes held and its
// reads validated, it installs each buffered cell as a locator it owns,
// and its status CAS then publishes them all at once, exactly as it
// publishes an eager writer's. The only active owner a lazy transaction
// can meet is such a writer, between its acquisition and its CAS; its
// pre-image is the committed version, so opens take it without
// consulting the manager, and validation catches the CAS if it lands.

import "slices"

// WithLazyConflicts switches the STM to commit-time conflict
// detection. Contention managers still receive lifecycle
// notifications, but ResolveConflict is never called: transactions are
// mutually invisible until they commit.
func WithLazyConflicts() Option {
	return func(s *STM) { s.lazy = true }
}

// openWriteLazy buffers mk(tx, base) — a private version made from the
// object's committed version base (see openWrite) — in the
// transaction's write buffer, as a cell owned by tx that commit
// installs as it is. The pre-image is
// recorded in the read set, which is what commit-time validation
// checks: if any base version moved, the transaction aborts itself
// and retries.
func (o *tobj) openWriteLazy(tx *Tx, mk func(owner *Tx, base *locator) *locator) (*locator, error) {
	if err := tx.step(); err != nil {
		return nil, err
	}
	sess := tx.sess
	if l, ok := sess.lazyWrites[o]; ok {
		return l, nil
	}
	// Record the pre-image for commit-time validation. This is one
	// write acquisition, not a read followed by a write: the manager
	// hears a single Opened(tx, true) and stats.opens counts once.
	// (Routing through openRead here used to fire a read-open *and* a
	// write-open per acquired object, inflating Karma-family
	// priorities and the opens count in lazy mode.)
	base, ok := tx.lookupRead(o)
	if !ok {
		// An active owner is a lazy writer inside its commit, whose
		// pre-image is the committed version: take it, with no
		// enemy-resolution loop; validation catches the writer's CAS.
		base, _ = tx.openBase(o.loc.Load())
		tx.recordRead(o, base)
	}
	clone := mk(tx, base)
	if sess.lazyWrites == nil {
		sess.lazyWrites = make(map[*tobj]*locator, 4)
	}
	sess.lazyWrites[o] = clone
	sess.writeStripes = append(sess.writeStripes, o.stripe)
	sess.opens++
	sess.stats.opens.Add(1)
	sess.mgr.Opened(tx, true)
	if rec := sess.rec; rec != nil {
		rec.open(o, true)
	}
	tx.maybeYield()
	if !tx.validate() {
		return nil, ErrAborted
	}
	return clone, nil
}

// tryCommitReadOnly is the clock-stable read-only commit shared by the
// eager and lazy paths. It takes no stripe locks: the scan plus the
// stability check (clock unmoved across the scan) prove every read was
// simultaneously valid at the scan's start, which is the serialization
// point. An attempt that registered a commit hook is the exception: its
// hook must be ordered against the hooks of the writers it read from,
// which only the stripes can do.
func (tx *Tx) tryCommitReadOnly() bool {
	if tx.sess.onCommit != nil {
		return tx.tryCommitReadOnlyHooked()
	}
	s := tx.sess.stm
	for {
		c0 := s.commitClock.Load()
		if !tx.readsStillCommitted() {
			tx.setCause(CauseValidation)
			tx.noteConflict()
			tx.Abort()
			return false
		}
		if s.commitClock.Load() == c0 {
			if !tx.commit() {
				tx.setCause(CauseCASRace)
				return false
			}
			return true
		}
	}
}

// tryCommitReadOnlyHooked commits a read-only attempt that registered
// an OnCommit hook: the writer commit minus the write. It locks the
// commit stripes of its read set, validates, takes the status CAS and
// fires the hook with the stripes still held. Every writer of an object
// in the read set holds that object's stripe from before its validation
// until after its own hook, so each such writer is either wholly before
// this commit — its values were read and its hook has returned — or
// blocked until this hook has; no writer is seen without its hook, which
// the clock-stable scan above cannot promise (a writer's values are
// visible from its status CAS on, before its clock bump and its hook).
// With the stripes held nothing in the read set can change, so the
// plain scan is exact. The stripes are locked but not owned: this
// attempt writes nothing, so a writer that merely read one of these
// objects has no reason to fail its lock-aware validation on it.
func (tx *Tx) tryCommitReadOnlyHooked() bool {
	sess := tx.sess
	// writeStripes is empty (this is the read-only commit); borrow its
	// buffer for the read set's stripes and hand it back empty, so the
	// attempt still counts as having written nothing.
	held := sess.writeStripes[:0]
	for _, r := range sess.reads {
		held = append(held, r.obj.stripe)
	}
	for obj := range sess.overflow {
		held = append(held, obj.stripe)
	}
	slices.Sort(held)
	held = slices.Compact(held)
	for _, i := range held {
		sess.stm.stripes[i].mu.Lock()
	}
	defer func() {
		for _, i := range held {
			sess.stm.stripes[i].mu.Unlock()
		}
		sess.writeStripes = held[:0]
	}()
	if !tx.readsStillCommitted() {
		tx.setCause(CauseValidation)
		tx.noteConflict()
		tx.Abort()
		return false
	}
	if !tx.commit() {
		tx.setCause(CauseCASRace)
		return false
	}
	tx.fireOnCommit()
	return true
}
