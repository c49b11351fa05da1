package stm

import (
	"context"
	"errors"
	rtrace "runtime/trace"

	"repro/internal/metrics"
)

// session is the unit of transaction execution: it binds a contention
// manager instance to a stream of logical transactions and caches the
// reusable pieces of attempt state. One goroutine uses a session at a
// time, but — unlike the paper's thread model — a session is not tied
// to any particular goroutine: STM.Atomically borrows one from a pool
// for the duration of a single logical transaction. What the paper's
// thread owes a transaction — one timestamp and one manager across
// retries — the session provides.
type session struct {
	stm *STM
	mgr Manager

	// stats counters are written only by the session's current
	// goroutine but read concurrently by TotalStats, hence atomic.
	stats atomicStats

	// commitLat and commitTries distribute the wall time and attempt
	// count of committed logical transactions. Like stats they are
	// written by the session's current goroutine and snapshotted
	// concurrently (metrics.AtomicHistogram is atomic per bucket), so
	// STM.CommitLatency needs no quiescence.
	commitLat   metrics.AtomicHistogram
	commitTries metrics.AtomicHistogram

	// freeTx and freeShared cache a descriptor and a logical-transaction
	// record for reuse (see recycle and atomically). They are
	// owner-private: only the goroutine holding the session touches them.
	freeTx     *Tx
	freeShared *txShared

	// The state of the running attempt. One attempt runs on a session
	// at a time and only its goroutine touches any of this, so it lives
	// here — reused by every attempt, emptied by resetAttempt — and not
	// on the per-attempt descriptor that locators pin (see Tx).
	//
	// current is the running attempt's descriptor, nil between attempts:
	// what atomically's cleanup aborts when fn panics out of one.
	current *Tx
	// reads and overflow are the read set: each object opened for
	// reading with the version observed. Invisible to writers,
	// validated lazily. The first inlineReads entries sit in the slice,
	// in open order, and are looked up by linear scan; the rest go to
	// the map (nil until a transaction first needs it).
	reads    []readEntry
	overflow map[*tobj]value
	// writeStripes holds the commit-stripe index of every object the
	// attempt has open for writing, in open order — what commit needs
	// of the write set to lock it (and to know there is one);
	// Tx.lockStripes sorts and dedupes it in place. installed holds
	// the locators an eager attempt installed, whose pre-images its
	// commit releases (see locator).
	writeStripes []uint32
	installed    []*locator
	// validClock is the commit-clock value at which the read set was
	// last known valid; validation is skipped while the clock has not
	// advanced.
	validClock uint64
	// opens counts objects opened by the attempt (reads and writes).
	opens int32
	// lazyWrites buffers tentative versions in lazy-conflict mode
	// (nil in eager mode and until a lazy transaction first writes).
	lazyWrites map[*tobj]value
	// local is the attempt-scoped scratch slot for layers composed
	// above the engine (the kv store parks its write-set capture
	// here); onCommit is the attempt's commit hook (see Tx.OnCommit).
	local    any
	onCommit func()

	// Flight-recorder state (see trace.go), owner-private. rec is
	// non-nil exactly while a sampled logical transaction runs — that
	// pointer is the whole disabled-path cost at every hook site.
	// recBuf is the session's reusable recorder, traceSkip the
	// sampling countdown, and rtCtx the runtime/trace task context of
	// the running transaction (nil outside an execution trace).
	rec       *txRecorder
	recBuf    *txRecorder
	traceSkip uint32
	rtCtx     context.Context
}

// newSession creates a session with its own contention-manager
// instance and registers it with the STM so TotalStats can see its
// counters.
func (s *STM) newSession(mgr Manager) *session {
	sess := &session{stm: s, mgr: mgr}
	s.mu.Lock()
	s.sessions = append(s.sessions, sess)
	s.mu.Unlock()
	return sess
}

// acquire hands out an idle pooled session, creating one (with a fresh
// manager from the STM's factory) only when every existing pooled
// session is in use — so the session count tracks the peak number of
// concurrent Atomically calls.
func (s *STM) acquire() *session {
	s.freeMu.Lock()
	if n := len(s.free); n > 0 {
		sess := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		s.freeMu.Unlock()
		return sess
	}
	s.freeMu.Unlock()
	return s.newSession(s.factory())
}

// release returns a session to the pool.
func (s *STM) release(sess *session) {
	s.freeMu.Lock()
	s.free = append(s.free, sess)
	s.freeMu.Unlock()
}

// Atomically runs fn as a transaction on a pooled session, retrying
// until it commits. It may be called concurrently from any number of
// goroutines — each call borrows a session (and with it a private
// contention-manager instance) for the duration of the logical
// transaction.
//
// The logical transaction receives its timestamp before the first
// attempt and keeps it across retries (the greedy manager's key
// requirement). fn must propagate errors from the typed accessors; when
// the underlying cause is an enemy-inflicted abort, Atomically retries
// fn, and any other error — ErrHalted included — aborts or abandons the
// transaction and is returned to the caller unchanged.
//
// fn may be called many times and must therefore be free of side
// effects other than through the transaction.
func (s *STM) Atomically(fn func(tx *Tx) error) error {
	sess := s.acquire()
	defer s.release(sess)
	return sess.atomically(fn)
}

// Atomic runs fn as a transaction on a pooled session and returns its
// result — the typed form of STM.Atomically for transactions that
// compute a value:
//
//	sum, err := stm.Atomic(s, func(tx *stm.Tx) (int, error) {
//		a, err := stm.Read(tx, x)
//		if err != nil {
//			return 0, err
//		}
//		b, err := stm.Read(tx, y)
//		if err != nil {
//			return 0, err
//		}
//		return a + b, nil
//	})
//
// On error the zero T is returned. fn may run many times; only the
// committed attempt's result is returned.
func Atomic[T any](s *STM, fn func(tx *Tx) (T, error)) (T, error) {
	var out T
	err := s.Atomically(func(tx *Tx) error {
		v, err := fn(tx)
		if err != nil {
			return err
		}
		out = v
		return nil
	})
	if err != nil {
		var zero T
		return zero, err
	}
	return out, nil
}

// Atomic2 is Atomic for transactions that compute two values — the
// shape of container lookups and conditional removals, whose methods
// return (value, ok, error) and so plug in directly:
//
//	v, ok, err := stm.Atomic2(s, queue.Dequeue)
//
// On error the zero A and B are returned; only the committed attempt's
// results are returned.
func Atomic2[A, B any](s *STM, fn func(tx *Tx) (A, B, error)) (A, B, error) {
	var outA A
	var outB B
	err := s.Atomically(func(tx *Tx) error {
		a, b, err := fn(tx)
		if err != nil {
			return err
		}
		outA, outB = a, b
		return nil
	})
	if err != nil {
		var zeroA A
		var zeroB B
		return zeroA, zeroB, err
	}
	return outA, outB, nil
}

// atomically executes one logical transaction on the session.
func (sess *session) atomically(fn func(tx *Tx) error) error {
	// If fn panics (or calls runtime.Goexit) mid-attempt, the attempt
	// never reaches the reset that ends every finished one. Abort the
	// orphan so it stops obstructing its objects — a
	// goroutine-per-request server that recovers panics must not wedge
	// a Var forever — and leave it unrecycled (Abort freezes it, which
	// is all the locator protocol needs); the reset keeps its read set
	// from pinning versions — and the local slot and commit hook from
	// pinning caller state — while the session idles.
	defer func() {
		if tx := sess.current; tx != nil {
			tx.Abort()
			sess.resetAttempt()
		}
		// A panicked sampled transaction never reached finishTrace;
		// discard its half-built recording rather than letting the
		// next sampled transaction inherit it (no-op otherwise).
		if sess.rec != nil {
			sess.rec = nil
			sess.recBuf.reset()
		}
	}()
	shared := sess.freeShared
	if shared != nil {
		sess.freeShared = nil
		shared.priority.Store(0)
		shared.aborts.Store(0)
		shared.label.Store(0)
		shared.waitNs.Store(0)
	} else {
		shared = &txShared{}
	}
	shared.id.Store(sess.stm.txIDs.Add(1))
	shared.timestamp.Store(sess.stm.timestamps.Add(1))
	trc := sess.stm.tracer
	if trc != nil {
		sess.armTrace(trc)
	}
	if rtrace.IsEnabled() {
		task := sess.beginRuntimeTask()
		defer sess.endRuntimeTask(task)
	}
	start := metrics.Mono()
	err := sess.run(shared, fn)
	elapsed := metrics.Mono() - start
	if err == nil {
		// Wall time of the whole logical transaction, retries included —
		// the latency a caller of Atomically actually experienced.
		sess.commitLat.Observe(elapsed)
		sess.commitTries.ObserveN(shared.aborts.Load() + 1)
	}
	if sess.rec != nil {
		// Deliver the sampled transaction: the stripes are released and
		// the status frozen, so the sink observes a finished history.
		sess.finishTrace(trc, shared, err == nil, int64(elapsed))
	}
	if !errors.Is(err, ErrHalted) {
		// The logical transaction is over and frozen, so enemies never
		// consult its record again and it can serve the next
		// transaction. A halted transaction stays active and
		// obstructing — enemy managers keep reading its timestamp and
		// priority — so its record must not be reused.
		sess.freeShared = shared
	}
	return err
}

// run executes attempts of the logical transaction shared until one
// commits, fn fails with a non-retryable error, or the transaction is
// halted by failure injection.
func (sess *session) run(shared *txShared, fn func(tx *Tx) error) error {
	for {
		tx := sess.newAttempt(shared)
		if rec := sess.rec; rec != nil {
			rec.begin()
		}
		reg := sess.beginAttemptRegion()
		sess.mgr.Begin(tx)
		err := fn(tx)
		switch {
		case err == nil:
			if tx.tryCommit() {
				sess.endAttemptRegion(reg, CauseNone)
				sess.mgr.Committed(tx)
				sess.stats.commits.Add(1)
				sess.recycle(tx)
				return nil
			}
			// Aborted between fn returning and commit.
		case errors.Is(err, ErrHalted):
			// Failure injection: abandon the transaction without
			// aborting it. It remains active and obstructing, so its
			// descriptor is not recycled — but the attempt state is
			// owner-private and never consulted again (enemies only
			// read the descriptor's atomics), so empty it as for any
			// finished attempt.
			sess.endAttemptRegion(reg, CauseNone)
			sess.stats.halted.Add(1)
			sess.resetAttempt()
			return ErrHalted
		case errors.Is(err, ErrAborted):
			// Enemy abort: fall through to retry.
		default:
			// User error: abort the transaction, surface the error.
			// Tracked apart from contention aborts (AbortsUser): the
			// caller chose to stop, no enemy forced it.
			tx.setCause(CauseUserError)
			tx.Abort()
			sess.stats.abortsUser.Add(1)
			if rec := sess.rec; rec != nil {
				rec.abort(CauseUserError)
			}
			sess.endAttemptRegion(reg, CauseUserError)
			sess.mgr.Aborted(tx)
			sess.recycle(tx)
			return err
		}
		tx.Abort() // make the attempt's fate unambiguous
		// Charge the abort to its cause. CauseNone can only mean user
		// code returned ErrAborted without any engine site classifying
		// the death; bucket it with enemy aborts so the per-cause
		// partition of Aborts stays exact.
		cause := tx.cause
		if cause == CauseNone {
			cause = CauseEnemyAbort
		}
		shared.aborts.Add(1)
		sess.stats.noteAbort(cause)
		if rec := sess.rec; rec != nil {
			rec.abort(cause)
		}
		sess.endAttemptRegion(reg, cause)
		sess.mgr.Aborted(tx)
		sess.recycle(tx)
	}
}

// newAttempt produces the descriptor for the next attempt, reusing the
// session's cached descriptor when there is one. The attempt state on
// the session is already empty: every way an attempt ends resets it.
func (sess *session) newAttempt(shared *txShared) *Tx {
	tx := sess.freeTx
	if tx != nil {
		sess.freeTx = nil
		tx.shared = shared
		tx.status.Store(int32(StatusActive))
		tx.waiting.Store(false)
		tx.halted.Store(false)
		tx.cause = CauseNone
	} else {
		tx = &Tx{sess: sess, shared: shared}
	}
	sess.current = tx
	return tx
}

// recycle ends a frozen attempt: it keeps the descriptor for reuse
// when that is safe and empties the session's attempt state. A
// descriptor may be reused only if it never appeared as an owner in
// any locator — that is, it opened nothing for eager writing: enemies
// that reached a descriptor through a stale locator interrogate its
// status forever, and resetting a referenced descriptor to active
// would rewrite committed history. Read-only attempts and lazy-mode
// attempts (whose commit installs ownerless locators) are never
// referenced.
func (sess *session) recycle(tx *Tx) {
	if sess.stm.lazy || len(sess.writeStripes) == 0 {
		sess.freeTx = tx
	}
	sess.resetAttempt()
}

// maxRetainedReads caps the overflow map a session keeps between
// attempts, so one huge transaction (a Map.grow, a DBSIZE-sized scan)
// does not leave its read set's buckets on a pooled session forever.
const maxRetainedReads = 2048

// resetAttempt empties the session's attempt state, keeping the
// buffers. It runs when an attempt ends, not when the next begins: a
// session may idle in the pool indefinitely, and its read set must not
// pin old committed versions — nor the local slot and commit hook pin
// caller state — while it does. (A fired hook already cleared itself;
// an aborted attempt's hook must not survive into a retry.)
func (sess *session) resetAttempt() {
	sess.current = nil
	clear(sess.reads)
	sess.reads = sess.reads[:0]
	if len(sess.overflow) > maxRetainedReads {
		sess.overflow = nil
	} else {
		clear(sess.overflow)
	}
	sess.writeStripes = sess.writeStripes[:0]
	clear(sess.installed)
	sess.installed = sess.installed[:0]
	sess.validClock = 0
	sess.opens = 0
	clear(sess.lazyWrites)
	sess.local = nil
	sess.onCommit = nil
}
