package stm

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"
)

// txShared is the state of a logical transaction that survives aborts
// and retries. The paper's greedy manager requires that a transaction
// keeps its timestamp when it restarts; Karma-family managers likewise
// accumulate priority across retries. Every field is atomic: enemy
// transactions read them concurrently, and a session may reuse the
// record for its next logical transaction while a straggling enemy
// (one that observed the previous, now-frozen transaction as owner)
// still reads it — such a read can only influence a contention-manager
// heuristic, never safety, but it must be race-free.
type txShared struct {
	timestamp atomic.Uint64 // identity and age; smaller = older = higher priority

	priority atomic.Int64 // Karma/Eruption/Polka accumulated priority
	aborts   atomic.Int64 // completed attempts that ended in abort

	// label is the interned SetLabel id, read by enemies when the
	// flight recorder names a conflict's aggressor; waitNs accumulates
	// the time of conflict rulings and the engine's waits on them
	// across the logical transaction's attempts
	// (Tx.WaitNs — the per-transaction counterpart of Stats.WaitNs).
	// A straggling enemy reading a reused record can misattribute a
	// label, which — like the other heuristic fields here — affects
	// only sampled diagnostics, never safety.
	label  atomic.Uint32
	waitNs atomic.Int64
}

// Tx is one attempt of a logical transaction. All attempts share the
// same txShared, and in particular the same timestamp. Statuses are
// one-shot, so a descriptor that was ever installed in a locator is
// never reused; descriptors that no enemy can reference are recycled
// by the owning session (see session.recycle).
//
// Enemy transactions hold references to a Tx through object locators
// and interrogate it only through the atomic accessors below. A locator
// keeps its owner's descriptor reachable until the object's next write,
// so the descriptor holds only what an enemy may touch: everything the
// owner alone uses — the read set, the write set, the validation
// clock, the open count, the lazy write buffer, the local slot and the
// commit hook — lives on the session (see session's attempt state),
// where the next attempt reuses it. Nothing owner-private may be added
// here: a field on the descriptor is retained, per written object, for
// as long as that object goes unwritten (TestTxDescriptorSize).
type Tx struct {
	sess   *session
	shared *txShared

	status  atomic.Int32
	waiting atomic.Bool
	halted  atomic.Bool
	// cause records why this attempt aborted (owner-written only: every
	// classification site — step, validate, the commit CASes — runs on
	// the owning goroutine). A single byte in the status word's padding
	// hole, so abort forensics cost the descriptor no space.
	cause AbortCause
}

// Timestamp returns the logical transaction's timestamp: its identity
// and its age. Timestamps are drawn from one global atomic counter
// when the logical transaction first begins and retained across aborts
// and retries, so no two logical transactions share one (managers key
// per-enemy bookkeeping by it) and there is a fixed bound on the
// number of transactions that ever run with an earlier timestamp — the
// property the greedy manager's Theorem 1 rests on. Smaller means
// older means higher priority.
func (tx *Tx) Timestamp() uint64 { return tx.shared.timestamp.Load() }

// Status returns the transaction's current status.
func (tx *Tx) Status() Status { return Status(tx.status.Load()) }

// Waiting reports whether the transaction is currently waiting for an
// enemy: the engine raises the flag for the length of its wait on a
// Wait ruling. The greedy manager's Rule 1 aborts enemies that are
// waiting.
func (tx *Tx) Waiting() bool { return tx.waiting.Load() }

// Priority returns the accumulated manager-defined priority of the
// logical transaction (used by Karma, Eruption and Polka; zero for
// managers that do not maintain priorities). It persists across
// retries.
func (tx *Tx) Priority() int64 { return tx.shared.priority.Load() }

// AddPriority adds delta to the logical transaction's accumulated
// priority. Eruption calls it on enemy transactions to transfer
// pressure, so it must be (and is) safe for concurrent use.
func (tx *Tx) AddPriority(delta int64) { tx.shared.priority.Add(delta) }

// Aborts returns how many attempts of this logical transaction have
// aborted so far.
func (tx *Tx) Aborts() int64 { return tx.shared.aborts.Load() }

// Opens returns the number of objects this attempt has opened. Like
// SetLocal and OnCommit it is for the goroutine running the attempt.
func (tx *Tx) Opens() int { return int(tx.sess.opens) }

// Abort moves the transaction from active to aborted on behalf of an
// enemy (or of the transaction itself). It returns true if the
// transaction is aborted afterwards — whether by this call or an
// earlier one — and false if it had already committed.
func (tx *Tx) Abort() bool {
	if tx.status.CompareAndSwap(int32(StatusActive), int32(StatusAborted)) {
		return true
	}
	return tx.Status() == StatusAborted
}

// commit moves the transaction from active to committed. It fails if
// an enemy aborted the transaction first.
func (tx *Tx) commit() bool {
	return tx.status.CompareAndSwap(int32(StatusActive), int32(StatusCommitted))
}

// Halt marks the transaction as halted for failure injection: the
// owning session abandons it mid-flight without aborting it, modelling
// the prematurely stopped transactions of the paper's Section 6. The
// transaction stays active (and keeps obstructing its objects) until
// some enemy's manager aborts it.
//
// Halt is valid only while the attempt's transactional function is
// running: on one's own tx, or on a tx a test handed out of a function
// it keeps blocked. The attempt notices at its next open, which returns
// ErrHalted. Once the function has returned the descriptor may already
// be serving an unrelated transaction (sessions recycle them), which is
// why a *Tx must not be stored — stmlint's txescape enforces it.
func (tx *Tx) Halt() { tx.halted.Store(true) }

// Halted reports whether failure injection has halted the transaction.
func (tx *Tx) Halted() bool { return tx.halted.Load() }

// SetLocal attaches an attempt-scoped value to the transaction — the
// composition point for layers above the engine that need to
// accumulate state alongside the transactional function (the kv store
// parks its write-set capture here). The slot is owner-private (only
// the goroutine running the attempt may touch it), holds one value,
// and is cleared when the attempt ends, so a retry starts empty and
// the transactional function must re-arm it.
func (tx *Tx) SetLocal(v any) { tx.sess.local = v }

// Local returns the value attached with SetLocal, or nil.
func (tx *Tx) Local() any { return tx.sess.local }

// OnCommit registers fn to run if — and only if — this attempt
// commits. For writer transactions fn runs inside the commit's
// critical window: after the status CAS and commit-clock bump, while
// the write set's commit stripes are still held. Two conflicting
// writers serialize on a shared stripe, so their hooks run in commit
// order — the property the WAL's group-commit ordering rests on (log
// order = commit order per key; see DESIGN.md §Durability).
//
// A read-only transaction that registers a hook commits by locking the
// stripes of its *read* set, validating, firing the hook and unlocking
// (tryCommitReadOnlyHooked). Its hook is thereby ordered against the
// hook of every writer of an object it read: each such writer's hook
// has either returned — and the reader saw that writer's values — or
// has not started, and the reader saw none of them. That is what lets
// a snapshot chunk name the exact log position it was cut at (kv's
// Store.Save); a read-only transaction without a hook takes no stripe
// and is never delayed by one.
//
// Blind writers (an empty read set in eager mode) commit without
// stripes and are ordered against nobody's hook; nothing that logs is
// one.
//
// Because the stripes are held, fn must be fast and must not block on
// other transactions or run transactions itself. One hook per
// attempt: a second call replaces the first. The hook is cleared at
// attempt boundaries, so a retried transaction must re-register it.
func (tx *Tx) OnCommit(fn func()) { tx.sess.onCommit = fn }

// fireOnCommit runs and clears the attempt's commit hook, if any.
// Called only on the success paths of tryCommit and its variants.
func (tx *Tx) fireOnCommit() {
	if h := tx.sess.onCommit; h != nil {
		tx.sess.onCommit = nil
		h()
	}
}

// String identifies the transaction for debugging.
func (tx *Tx) String() string {
	return fmt.Sprintf("tx(ts=%d %s)", tx.Timestamp(), tx.Status())
}

// backoff is the package's backoff with the time accounted to the
// session's BackoffNs — eager acquisition CAS retries, the
// mechanism-side counterpart of the manager's policy-side WaitNs.
func (tx *Tx) backoff(spin int) {
	t0 := time.Now()
	backoff(spin)
	tx.sess.stats.backoffNs.Add(int64(time.Since(t0)))
}

// setCause classifies the attempt's abort for the flight recorder and
// the per-cause counters. First cause wins: an enemy abort noticed at
// the next step must not be re-labelled by a later check, so every
// site routes through here.
func (tx *Tx) setCause(c AbortCause) {
	if tx.cause == CauseNone {
		tx.cause = c
	}
}

// step checks that the attempt may keep running, translating an
// enemy-inflicted abort or injected halt into the error the
// transactional function should return.
func (tx *Tx) step() error {
	if tx.Halted() {
		return ErrHalted
	}
	if tx.Status() != StatusActive {
		tx.setCause(CauseEnemyAbort)
		return ErrAborted
	}
	return nil
}

// validate re-checks every recorded read against the object's current
// committed version. It is cheap in the common case: when the global
// commit clock has not advanced since the last successful validation
// no committed write can have invalidated the read set, so the scan is
// skipped.
//
// On failure the transaction aborts itself and validate returns false.
func (tx *Tx) validate() bool {
	// The commit clock starts at 2, so the zero value of validClock
	// means "never validated" and forces the first scan.
	sess := tx.sess
	s := sess.stm
	for attempt := 0; ; attempt++ {
		clock := s.commitClock.Load()
		if clock == sess.validClock && !s.fullValidation {
			return true
		}
		if !tx.readsStillCommitted() {
			tx.setCause(CauseValidation)
			tx.Abort()
			return false
		}
		if s.commitClock.Load() == clock {
			// Stable scan: cache it.
			sess.validClock = clock
			return true
		}
		if attempt >= 3 {
			// Concurrent commits kept moving the clock; the scan
			// passed against some interleaving of them, which is the
			// same guarantee the eager DSTM gives. Do not cache.
			return true
		}
	}
}

// maybeYield hands the processor to another goroutine at the STM's
// configured interleave period, so transactions overlap even when the
// host has fewer cores than workers (see WithInterleavePeriod).
func (tx *Tx) maybeYield() {
	if p := tx.sess.stm.interleave; p > 0 && int(tx.sess.opens)%p == 0 {
		runtime.Gosched()
	}
}

// readEntry is one read-set entry: an object opened for reading and
// the version observed.
type readEntry struct {
	obj  *tobj
	seen *locator
}

// inlineReads is the number of read-set entries kept in the session's
// slice and looked up by linear scan; reads past it go to the overflow
// map. Every first read of an object pays one failed lookup, so a
// transaction of n ≤ inlineReads reads costs n²/2 pointer compares and
// no hashing, and every read past it pays a failed scan of the slice
// before its map probe. Measured, not tunable — BenchmarkReadSet (n
// distinct reads, then a repeated read of the first and the last),
// ns/op, best of ten runs at -benchtime 20000x on the 2-core builder
// (run-to-run spread about ±8 %), 0 allocs/op in every cell:
//
//	inlineReads    n=4    n=16    n=64    n=1024
//	         8     379    1040    3814     62759
//	        16     395     729    3394     58980
//	        32     383     677    3354     72361
//	        64     394     689    2364     85779
//	       128     398     716    2468     98351
//
// Spilling a 16-read transaction to the map costs it 40–50 %; 16 and
// 32 cannot be told apart below 1 024 reads, where 32 costs 20 % and
// 128 costs 60 %. 32 is the smallest that holds every transaction of
// the job pipeline (21 opens per commit) in the slice; 64 would buy a
// 64-read transaction 30 % and nothing in this repository is that
// size. (Why the overflow is a map at all: DESIGN.md §2.)
const inlineReads = 32

// InlineReads is the number of reads a transaction makes before its
// read set spills from the slice to the overflow map — the size a
// background walk cuts its transactions to (kv's snapshot chunks).
const InlineReads = inlineReads

// lookupRead returns the version the attempt has recorded for obj, if
// any: the slice first, then the overflow map.
func (tx *Tx) lookupRead(obj *tobj) (*locator, bool) {
	sess := tx.sess
	for i := range sess.reads {
		if sess.reads[i].obj == obj {
			return sess.reads[i].seen, true
		}
	}
	if len(sess.overflow) != 0 {
		v, ok := sess.overflow[obj]
		return v, ok
	}
	return nil, false
}

// recordRead notes that the transaction observed version v of obj.
// The caller (openRead) has already checked lookupRead and found
// nothing, and only the owning goroutine mutates the read set, so no
// duplicate check is repeated here — this is the hottest read path.
func (tx *Tx) recordRead(obj *tobj, v *locator) {
	sess := tx.sess
	if len(sess.reads) < inlineReads {
		sess.reads = append(sess.reads, readEntry{obj, v})
		return
	}
	if sess.overflow == nil {
		sess.overflow = make(map[*tobj]*locator, 2*inlineReads)
	}
	sess.overflow[obj] = v
}

// readFault is the verdict of a read-set scan: every read valid, or
// why the first failing one failed.
type readFault uint8

const (
	readsValid readFault = iota
	// readStale: the object's committed version moved on.
	readStale
	// readHeld (lock-aware scan only): another committing writer
	// holds the read's commit stripe.
	readHeld
)

// readsStillCommitted re-checks every recorded read — slice entries
// and overflow map — against the object's current committed version.
// This is the plain (open-time and read-only-commit) scan; writer
// commits use the lock-aware readsCommittedAndUnowned.
func (tx *Tx) readsStillCommitted() bool {
	return tx.validateReads(false) == readsValid
}

// readsCommittedAndUnowned is the writer commit's read-set scan, run
// while tx holds its write set's commit stripes: each entry must match
// the committed version and its stripe must not be held by another
// committing writer. Treating a foreign stripe lock as a conflict is
// what preserves the old global commitMu's invariant — see
// readStillValid for the ordering argument.
func (tx *Tx) readsCommittedAndUnowned() readFault {
	return tx.validateReads(true)
}

func (tx *Tx) validateReads(lockAware bool) readFault {
	for _, r := range tx.sess.reads {
		if f := tx.readStillValid(r.obj, r.seen, lockAware); f != readsValid {
			return f
		}
	}
	for obj, seen := range tx.sess.overflow {
		if f := tx.readStillValid(obj, seen, lockAware); f != readsValid {
			return f
		}
	}
	return readsValid
}

// readStillValid checks one read-set entry. In lock-aware mode the
// stripe-owner load precedes the version load, and that order is
// load-bearing: a writer W2 that invalidates obj holds obj's stripe
// from before its own validation until after its status CAS, so a
// passing entry pins the owner load before W2's stripe acquisition —
// and hence tx's whole validation (which starts after tx acquired its
// own stripes) before W2's. Two writers racing on overlapping
// read/write sets would each need their validation ordered before the
// other's acquisition, which is impossible, so at least one fails.
// (Checked the other way around, a stale version read could pair with
// a post-release owner read and let both commit.)
func (tx *Tx) readStillValid(obj *tobj, seen *locator, lockAware bool) readFault {
	if lockAware {
		if owner := tx.sess.stm.stripes[obj.stripe].owner.Load(); owner != nil && owner != tx {
			return readHeld
		}
	}
	if obj.committed() != seen {
		return readStale
	}
	return readsValid
}
