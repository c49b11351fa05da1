package stm

import (
	"slices"
	"sync"
	"sync/atomic"
)

// STM is a transactional-memory instance: the shared timestamp source,
// commit clock, session pool and session registry that a set of
// cooperating transactions uses. Independent STM instances are fully
// isolated from one another.
//
// Transactions run through STM.Atomically (and the typed Atomic),
// callable from any goroutine: each call borrows a pooled session
// carrying a private contention-manager instance built by the STM's
// ManagerFactory (see WithManagerFactory). The logical transaction
// keeps its timestamp and its manager across retries, which is all the
// paper's one-transaction-per-thread model asks of a thread.
type STM struct {
	timestamps  atomic.Uint64
	commitClock atomic.Uint64

	// interleave, when positive, yields the processor every
	// interleave-th object open (see WithInterleavePeriod).
	interleave int

	// lazy switches conflict detection from open time to commit time
	// (see WithLazyConflicts in lazy.go).
	lazy bool

	// fullValidation disables the commit-clock shortcut so every open
	// rescans the whole read set. Ablation knob: quantifies what the
	// clock optimization buys (see BenchmarkAblationValidation).
	fullValidation bool

	// stripes are the per-object commit locks. Every Var maps to one
	// stripe; a writer commit locks its write set's stripes in
	// ascending index order (deadlock-free), validates its read set
	// with lock-aware validation, performs the status CAS and
	// releases. With invisible reads, two writers could otherwise each
	// validate while the other was past validation but before its
	// status CAS, committing a non-serializable pair; the stripes
	// preserve the invariant the old global commitMu provided — of two
	// conflicting writers the second observes the first — while
	// letting writers on disjoint stripes commit in parallel. The
	// per-stripe critical section is a read-set scan plus one CAS — no
	// user code — so the finite-delay model of the paper still holds;
	// SXM avoided the race with visible reader lists instead (see
	// DESIGN.md).
	stripes [commitStripes]commitStripe

	// factory builds the per-session contention manager for sessions
	// created by STM.Atomically (see WithManagerFactory).
	factory ManagerFactory

	// tracer, when non-nil, is the flight recorder installed by
	// WithTracer: sessions sample logical transactions and deliver
	// event traces to its sink (see trace.go).
	tracer *tracerConfig

	// commitHook, when non-nil, runs inside every writer commit after
	// read-set validation succeeds (and a lazy writer has acquired its
	// writes) and before the status CAS — the window the striped
	// protocol must keep exclusive between conflicting writers. Only
	// tests install it (via the export_test option), to schedule two
	// commits into the window deterministically on hosts without real
	// parallelism; nil in production, costing one predictable branch
	// per writer commit.
	commitHook func()

	// free is the LIFO pool of idle sessions behind STM.Atomically,
	// guarded by freeMu. An explicit list (rather than sync.Pool) keeps
	// the session count equal to the peak number of concurrent
	// transactions: sessions are never dropped, so the registry below —
	// and with it TotalStats — stays exact and bounded. (A lock-free
	// Treiber stack with in-place links would suffer ABA here because
	// sessions are reused; the mutex section is a slice push/pop.)
	freeMu sync.Mutex
	free   []*session

	mu       sync.Mutex
	sessions []*session
}

// Option configures an STM instance.
type Option func(*STM)

// WithInterleavePeriod makes every transaction yield the processor
// after each n-th object open. Zero or negative disables yielding.
// Tests use it on hosts with fewer cores than workers to force
// transactions to overlap mid-attempt. The figures do not: a yield
// inside an attempt can park an owner behind every other worker (see
// DESIGN.md §Substitutions for the figures' model).
func WithInterleavePeriod(n int) Option {
	return func(s *STM) { s.interleave = n }
}

// WithFullValidation disables the commit-clock shortcut: every open
// revalidates the entire read set even when no commit has happened
// since the last validation. Semantically identical, strictly slower;
// exists to measure the optimization (ablation).
func WithFullValidation() Option {
	return func(s *STM) { s.fullValidation = true }
}

// WithManagerFactory sets the constructor for the per-session
// contention managers behind STM.Atomically; wire it to a registry
// entry (core.Factory) to pick a policy by name. Without this option
// the STM falls back to a built-in polite-with-patience-bound manager
// (wait with growing backoff, abort the enemy after a bounded number
// of rounds so a halted enemy cannot obstruct forever). The factory
// runs once per pooled session, so the session count — the peak number
// of concurrent Atomically calls — is also the manager count.
func WithManagerFactory(f ManagerFactory) Option {
	return func(s *STM) { s.factory = f }
}

// New creates an empty STM instance.
func New(opts ...Option) *STM {
	s := &STM{}
	// The commit clock starts at 2 so that a transaction's zero-valued
	// validClock always differs from it (see Tx.validate).
	s.commitClock.Store(2)
	for _, opt := range opts {
		opt(s)
	}
	if s.factory == nil {
		s.factory = func() Manager { return &defaultManager{} }
	}
	return s
}

// TotalStats aggregates the statistics of every session the STM has
// created. The counters are atomic, so it may be called at any time,
// concurrently with running transactions; each counter is exact to the
// last completed update.
func (s *STM) TotalStats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total Stats
	for _, sess := range s.sessions {
		snap := sess.stats.snapshot()
		total.Add(snap)
	}
	return total
}

// CommitClock returns the number of commits observed so far plus one;
// it advances on every commit and is the basis for cheap read-set
// validation.
func (s *STM) CommitClock() uint64 { return s.commitClock.Load() }

// commitStripes is the size of the per-STM stripe-lock array writer
// commits map their write sets onto. A power of two sized comfortably
// past the paper's 32-thread sweeps (and our 64/128-goroutine
// extensions), so that writers on disjoint objects rarely share a
// stripe by accident.
const commitStripes = 128

// commitStripe is one slot of the striped writer-commit lock. The
// mutex serializes committers whose write sets share the stripe; the
// owner pointer publishes the committing transaction to lock-aware
// read-set validation, which only loads it (never locks), so it must
// be atomic. Padded to a cache line so contended neighbours do not
// false-share.
type commitStripe struct {
	mu    sync.Mutex
	owner atomic.Pointer[Tx]
	_     [64 - 16]byte
}

// lockStripes sorts and dedupes the attempt's write-set stripe indices
// in place, locks each stripe in ascending order (the global order
// that makes overlapping writer commits deadlock-free) and publishes tx
// as the stripes' committing owner. It returns the deduped stripes,
// which the caller passes to unlockStripes.
func (tx *Tx) lockStripes() []uint32 {
	held := tx.sess.writeStripes
	slices.Sort(held)
	held = slices.Compact(held)
	for _, i := range held {
		st := &tx.sess.stm.stripes[i]
		st.mu.Lock()
		st.owner.Store(tx)
	}
	return held
}

// unlockStripes clears the owner published by lockStripes and releases
// the stripes. Owners are cleared only after the commit's status CAS
// and clock bump, so a validator that sees a stripe unowned also sees
// the committed versions the owner installed.
func (tx *Tx) unlockStripes(held []uint32) {
	for _, i := range held {
		st := &tx.sess.stm.stripes[i]
		st.owner.Store(nil)
		st.mu.Unlock()
	}
}

// releasePreimages lets go of the versions a committed eager writer
// replaced: with the owner committed no reader of its locators looks
// at the pre-image again (see locator), and keeping it would pin it
// until the object's next write.
func (tx *Tx) releasePreimages() {
	for _, l := range tx.sess.installed {
		l.prev.Store(nil)
	}
}

// tryCommit validates the read set one final time and attempts the
// commit CAS, advancing the commit clock when a writer commits.
//
// Read-only transactions validate with a clock-stability loop: if the
// commit clock is unchanged across the scan, every read was
// simultaneously valid at the scan's start, which is the transaction's
// serialization point. Writer transactions, eager and lazy alike, lock
// the commit stripes covering their write set (in ascending index
// order) and validate with the lock-aware scan, which treats a stripe
// held by another committing writer as a conflict — so of two writers
// racing on overlapping read/write sets, at least one observes the
// other and fails validation (see DESIGN.md for the ordering argument).
// In lazy mode the read set includes every write's base version, and a
// failed validation means a conflicting transaction committed first and
// all this attempt's work is wasted — the lazy design's signature cost.
func (tx *Tx) tryCommit() bool {
	sess := tx.sess
	s := sess.stm
	if len(sess.writeStripes) == 0 {
		return tx.tryCommitReadOnly()
	}
	if len(sess.reads) == 0 {
		// Blind writer (e.g. a typed Update, whose pre-image is the
		// owned locator's prev, not a read-set entry): with nothing
		// to validate there is no validate-then-CAS window to protect,
		// so no stripes are taken — the status CAS alone is the
		// serialization point, exactly the original DSTM commit.
		// Ownership guards the pre-images: an enemy acquires an owned
		// object only by aborting this transaction first, which makes
		// the CAS below fail. (Lazy mode never reaches here: its
		// write acquisitions record pre-images in the read set.)
		if !tx.commit() {
			tx.setCause(CauseCASRace)
			return false
		}
		s.commitClock.Add(2)
		tx.releasePreimages()
		// No stripes are held here, so the commit hook of a blind
		// writer carries no cross-transaction ordering guarantee; the
		// kv capture never reaches this path (its mutations read the
		// chain they rewrite, so the read set is never empty).
		tx.fireOnCommit()
		return true
	}
	held := tx.lockStripes()
	defer tx.unlockStripes(held)
	if f := tx.readsCommittedAndUnowned(); f != readsValid {
		sess.stripeHeld = f == readHeld
		tx.setCause(CauseValidation)
		tx.noteConflict()
		tx.Abort()
		return false
	}
	// Lazy acquisition: each buffered cell, already owned by tx, is
	// installed with the committed version as its pre-image, as an eager
	// open would have installed it. The held stripes make the plain
	// store safe: in lazy mode only a committing writer installs, and it
	// holds the object's stripe while it does.
	for obj, l := range sess.lazyWrites {
		l.prev.Store(obj.loc.Load().base())
		obj.loc.Store(l)
		sess.installed = append(sess.installed, l)
	}
	if h := s.commitHook; h != nil {
		h()
	}
	if !tx.commit() {
		tx.setCause(CauseCASRace)
		return false
	}
	s.commitClock.Add(2)
	tx.releasePreimages()
	// The deferred unlockStripes has not run yet: the hook fires with
	// the write set's stripes still held, so the hooks of two writers
	// that touched the same object run in their commit order.
	tx.fireOnCommit()
	return true
}
