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
// With WithLazyConflicts, OpenWrite buffers the tentative version
// privately instead of installing a locator, so running transactions
// never see each other: no open-time conflicts arise and the
// contention manager is never consulted. All conflicts surface at
// commit, where the loser has already executed in full — the wasted
// work that motivates eager detection plus contention management, and
// the comparison BenchmarkLazyVsEager measures.
//
// Commit installs each written object's new version in place under the
// write set's commit stripes, bracketed by the STM's installer count
// (the seqlock generalizing the old odd/even commit-clock window to
// concurrent, stripe-disjoint installers), so concurrent readers never
// accept a cut that spans a partial installation.

// WithLazyConflicts switches the STM to commit-time conflict
// detection. Contention managers still receive lifecycle
// notifications, but ResolveConflict is never called: transactions are
// mutually invisible until they commit.
func WithLazyConflicts() Option {
	return func(s *STM) { s.lazy = true }
}

// Lazy reports whether the STM uses commit-time conflict detection.
func (s *STM) Lazy() bool { return s.lazy }

// openWriteLazy buffers a private clone of the object's committed
// version in the transaction's write buffer (or mk(), when the caller
// replaces the whole value — see openWriteAs). The pre-image is
// recorded in the read set, which is what commit-time validation
// checks: if any base version moved, the transaction aborts itself
// and retries.
func (o *TObj) openWriteLazy(tx *Tx, mk func() Value) (Value, error) {
	if err := tx.step(); err != nil {
		return nil, err
	}
	sess := tx.sess
	if v, ok := sess.lazyWrites[o]; ok {
		return v, nil
	}
	// Record the pre-image for commit-time validation. This is one
	// write acquisition, not a read followed by a write: the manager
	// hears a single Opened(tx, true) and stats.opens counts once.
	// (Routing through openRead here used to fire a read-open *and* a
	// write-open per acquired object, inflating Karma-family
	// priorities and the opens count in lazy mode.)
	base, ok := tx.lookupRead(o)
	if !ok {
		// Running lazy transactions install no locators, so no
		// locator ever carries an active owner and the committed
		// version is stable — no enemy-resolution loop is needed.
		base = o.loc.Load().current()
		tx.recordRead(o, base)
	}
	var clone Value
	switch {
	case mk != nil:
		clone = mk()
	case base != nil:
		clone = base.Clone()
	}
	if sess.lazyWrites == nil {
		sess.lazyWrites = make(map[*TObj]Value, 4)
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

// tryCommitLazy validates the read set (which includes every write's
// base version) and installs the buffered writes under the write
// set's commit stripes, with the STM's installer count held non-zero
// for the duration of the installation so that concurrent clock-stable
// validations retry rather than accept a partial commit. Validation is
// lock-aware, exactly as in the eager writer commit: a read whose
// stripe another writer holds mid-commit is a conflict.
func (tx *Tx) tryCommitLazy() bool {
	if len(tx.sess.writeStripes) == 0 {
		return tx.tryCommitReadOnly()
	}
	s := tx.sess.stm
	held := tx.lockStripes()
	defer tx.unlockStripes(held)
	if !tx.readsCommittedAndUnowned() {
		// A conflicting transaction committed first; all our work is
		// wasted — the lazy design's signature cost.
		tx.setCause(CauseValidation)
		tx.noteConflict()
		tx.Abort()
		return false
	}
	if h := s.commitHook; h != nil {
		h()
	}
	if !tx.commit() {
		tx.setCause(CauseCASRace)
		return false
	}
	// Publish the buffered writes. The clock bump lands before the
	// installer count drops back, so a validator that finds the count
	// at zero after our installation necessarily re-reads a moved
	// clock and rescans.
	s.installers.Add(1)
	for obj, newVal := range tx.sess.lazyWrites {
		obj.loc.Store(&locator{newVal: newVal})
	}
	s.commitClock.Add(2)
	s.installers.Add(-1)
	// Stripes are still held (the deferred unlockStripes runs after we
	// return), so lazy-mode commit hooks keep the same per-object
	// ordering guarantee as the eager writer path.
	tx.fireOnCommit()
	return true
}

// tryCommitReadOnly is the clock-stable read-only commit shared by the
// eager and lazy paths. It takes no stripe locks: the scan plus the
// stability check (installer count still zero, clock unmoved across
// the scan) prove every read was simultaneously valid at the scan's
// start, which is the serialization point.
func (tx *Tx) tryCommitReadOnly() bool {
	s := tx.sess.stm
	for attempt := 0; ; attempt++ {
		if s.installers.Load() != 0 {
			// An installation is in progress; wait it out.
			tx.backoff(attempt)
			continue
		}
		c0 := s.commitClock.Load()
		if !tx.readsStillCommitted() {
			tx.setCause(CauseValidation)
			tx.noteConflict()
			tx.Abort()
			return false
		}
		if s.installers.Load() == 0 && s.commitClock.Load() == c0 {
			if !tx.commit() {
				tx.setCause(CauseCASRace)
				return false
			}
			tx.fireOnCommit()
			return true
		}
	}
}
