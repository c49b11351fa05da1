package stm

import "sync/atomic"

// Stats is a snapshot of transaction statistics, aggregated over every
// session of an STM by STM.TotalStats. The live counters are atomic, so snapshots may be
// taken at any time, concurrently with running transactions.
type Stats struct {
	// Commits counts committed logical transactions.
	Commits int64
	// Aborts counts aborted attempts (a logical transaction that
	// aborted twice and then committed contributes 2 here and 1 to
	// Commits).
	Aborts int64
	// AbortsEnemy, AbortsValidation and AbortsCASRace partition Aborts
	// by cause (see AbortCause): an enemy's manager killed the attempt
	// (or its own ruled AbortSelf); read-set validation failed; the
	// commit status CAS lost to an enemy abort inside the commit
	// window. Their sum always equals Aborts — the accounting the
	// abort-forensics tests hammer.
	AbortsEnemy      int64
	AbortsValidation int64
	AbortsCASRace    int64
	// AbortsValidationHeld counts the subset of AbortsValidation where
	// the writer commit's lock-aware scan found a read's commit stripe
	// held by another committing writer — possibly a writer of another
	// object on the same stripe — rather than a read whose committed
	// version had moved on.
	AbortsValidationHeld int64
	// AbortsUser counts attempts ended by a non-retryable user error.
	// Not part of Aborts (which has always counted only retried
	// attempts), and tracked so INFO can separate command failures
	// from contention.
	AbortsUser int64
	// Conflicts counts conflicts observed: open-time
	// contention-manager consultations (eager mode) plus commit-time
	// validation failures (all modes — so eager and lazy conflict
	// counts are comparable in the figures).
	Conflicts int64
	// EnemyAborts counts conflicts this session resolved by aborting
	// the enemy.
	EnemyAborts int64
	// Opens counts successful object opens (reads and writes).
	Opens int64
	// Halted counts attempts abandoned by failure injection.
	Halted int64
	// WaitNs is total nanoseconds spent in the engine's wait on a
	// contention manager's ruling — the policy-chosen waiting the paper
	// holds against wait-based managers (karma's Figure 10 convoy is a
	// WaitNs explosion, invisible in Commits/Aborts alone). Lazy mode
	// never consults the manager at open time, so it accrues none.
	WaitNs int64
	// BackoffNs is total nanoseconds spent in engine-level backoff
	// between eager acquisition CAS retries (zero in lazy mode, which
	// acquires under the commit stripes). Unlike WaitNs this is
	// mechanism, not policy — every manager pays it equally.
	BackoffNs int64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Commits += other.Commits
	s.Aborts += other.Aborts
	s.AbortsEnemy += other.AbortsEnemy
	s.AbortsValidation += other.AbortsValidation
	s.AbortsValidationHeld += other.AbortsValidationHeld
	s.AbortsCASRace += other.AbortsCASRace
	s.AbortsUser += other.AbortsUser
	s.Conflicts += other.Conflicts
	s.EnemyAborts += other.EnemyAborts
	s.Opens += other.Opens
	s.Halted += other.Halted
	s.WaitNs += other.WaitNs
	s.BackoffNs += other.BackoffNs
}

// atomicStats is the live, concurrently readable form of Stats. Each
// counter is written only by the goroutine currently holding the
// session (uncontended atomic adds) and read by TotalStats at any
// time.
type atomicStats struct {
	commits          atomic.Int64
	aborts           atomic.Int64
	abortsEnemy      atomic.Int64
	abortsValidation atomic.Int64
	abortsHeld       atomic.Int64
	abortsCASRace    atomic.Int64
	abortsUser       atomic.Int64
	conflicts        atomic.Int64
	enemyAborts      atomic.Int64
	opens            atomic.Int64
	halted           atomic.Int64
	waitNs           atomic.Int64
	backoffNs        atomic.Int64
}

// noteAbort charges one counted abort to its cause bucket. CauseNone
// (the transactional function surfaced ErrAborted without any engine
// site classifying the death — only possible when user code returns
// ErrAborted itself) is charged to the enemy bucket, so the partition
// invariant sum(per-cause) == Aborts holds unconditionally. held
// charges a validation abort to AbortsValidationHeld as well.
func (a *atomicStats) noteAbort(c AbortCause, held bool) {
	a.aborts.Add(1)
	switch c {
	case CauseValidation:
		a.abortsValidation.Add(1)
		if held {
			a.abortsHeld.Add(1)
		}
	case CauseCASRace:
		a.abortsCASRace.Add(1)
	default:
		a.abortsEnemy.Add(1)
	}
}

// snapshot captures the counters as a plain Stats value.
func (a *atomicStats) snapshot() Stats {
	return Stats{
		Commits:              a.commits.Load(),
		Aborts:               a.aborts.Load(),
		AbortsEnemy:          a.abortsEnemy.Load(),
		AbortsValidation:     a.abortsValidation.Load(),
		AbortsValidationHeld: a.abortsHeld.Load(),
		AbortsCASRace:        a.abortsCASRace.Load(),
		AbortsUser:           a.abortsUser.Load(),
		Conflicts:            a.conflicts.Load(),
		EnemyAborts:          a.enemyAborts.Load(),
		Opens:                a.opens.Load(),
		Halted:               a.halted.Load(),
		WaitNs:               a.waitNs.Load(),
		BackoffNs:            a.backoffNs.Load(),
	}
}

// AbortRate returns the fraction of attempts that aborted, in [0,1].
func (s *Stats) AbortRate() float64 {
	total := s.Commits + s.Aborts
	if total == 0 {
		return 0
	}
	return float64(s.Aborts) / float64(total)
}
