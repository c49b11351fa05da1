package sched

import (
	"fmt"
	"math"

	"repro/internal/stm"
)

// Access is one object acquisition in a transaction's script: at
// Offset ticks into each attempt, the transaction opens Object (for
// writing — the simulator models exclusive accesses, the case the
// paper's adversarial analysis uses).
type Access struct {
	// Offset is the tick offset from the attempt's start; 0 <= Offset
	// < Length of the owning spec.
	Offset int
	// Object is the object index in [0, Instance.Objects).
	Object int
}

// TxSpec scripts one transaction for the simulator. If aborted, the
// transaction restarts the same script from the beginning at the next
// tick, keeping its Timestamp — exactly the paper's model.
type TxSpec struct {
	// ID indexes Instance.Specs; same-tick processing follows ID
	// order, which is how the paper's adversarial cascade ("in turn,
	// each Ti opens Xi") is ordered.
	ID int
	// Length is the attempt duration in ticks.
	Length int
	// Timestamp is the priority stamp: smaller is older is higher
	// priority.
	Timestamp int
	// Accesses are the acquisitions, in non-decreasing Offset order.
	Accesses []Access
	// Label annotates traces (optional).
	Label string
}

// DynamicTimestamp marks a transaction whose timestamp is assigned by
// the simulator when the transaction first starts (how the real STM
// stamps transactions in a sequence), rather than fixed in the script.
const DynamicTimestamp = -1

// Instance is a complete simulator input.
type Instance struct {
	Specs   []TxSpec
	Objects int
	// Sequences optionally partitions transactions into per-thread
	// chains: within a chain, a transaction cannot start until its
	// predecessor commits. Nil means all transactions are concurrent
	// from tick 0 (the paper's main model).
	Sequences [][]int
}

// Validate checks the instance's well-formedness.
func (ins *Instance) Validate() error {
	for i, spec := range ins.Specs {
		if spec.ID != i {
			return fmt.Errorf("sched: spec %d has ID %d; IDs must equal indices", i, spec.ID)
		}
		if spec.Timestamp < 0 && spec.Timestamp != DynamicTimestamp {
			return fmt.Errorf("sched: spec %d has invalid timestamp %d", i, spec.Timestamp)
		}
		if spec.Length <= 0 {
			return fmt.Errorf("sched: spec %d has non-positive length", i)
		}
		last := -1
		for _, acc := range spec.Accesses {
			if acc.Offset < 0 || acc.Offset >= spec.Length {
				return fmt.Errorf("sched: spec %d access offset %d outside [0,%d)", i, acc.Offset, spec.Length)
			}
			if acc.Offset < last {
				return fmt.Errorf("sched: spec %d accesses not sorted by offset", i)
			}
			last = acc.Offset
			if acc.Object < 0 || acc.Object >= ins.Objects {
				return fmt.Errorf("sched: spec %d object %d outside [0,%d)", i, acc.Object, ins.Objects)
			}
		}
	}
	if ins.Sequences != nil {
		seen := make(map[int]bool, len(ins.Specs))
		for si, seq := range ins.Sequences {
			for _, id := range seq {
				if id < 0 || id >= len(ins.Specs) {
					return fmt.Errorf("sched: sequence %d references transaction %d out of range", si, id)
				}
				if seen[id] {
					return fmt.Errorf("sched: transaction %d appears in more than one sequence position", id)
				}
				seen[id] = true
			}
		}
		if len(seen) != len(ins.Specs) {
			return fmt.Errorf("sched: sequences cover %d of %d transactions; they must partition all", len(seen), len(ins.Specs))
		}
	}
	return nil
}

// SimTx is the live state of one scripted transaction. It is the
// stm.Contender its own manager and its enemies' managers see.
type SimTx struct {
	Spec TxSpec

	mgr       stm.Manager // this transaction's own manager instance
	timestamp int         // resolved (possibly dynamic) priority stamp
	started   bool
	pred      *SimTx // sequence predecessor, nil if none

	progress  int
	holds     map[int]bool
	waiting   bool
	waitingOn *SimTx
	committed bool
	aborted   bool // true between an abort and the restart tick
	restartAt int
	commitAt  int
	aborts    int
	priority  int64 // manager-maintained priority
	// attempt bookkeeping for the pending-commit checker
	actionStart int
}

// Timestamp returns the retained priority stamp (smaller = older).
// For DynamicTimestamp specs it is meaningful only once the
// transaction has started.
func (tx *SimTx) Timestamp() uint64 { return uint64(tx.timestamp) }

// Waiting reports whether the transaction is currently waiting.
func (tx *SimTx) Waiting() bool { return tx.waiting }

// Priority returns the manager-maintained priority accumulator.
func (tx *SimTx) Priority() int64 { return tx.priority }

// AddPriority adjusts the manager-maintained priority accumulator.
func (tx *SimTx) AddPriority(d int64) { tx.priority += d }

// Halted reports false: a scripted transaction never halts.
func (tx *SimTx) Halted() bool { return false }

// ActionKind classifies how a continuous running interval of a
// transaction ended.
type ActionKind int

const (
	// ActionCommit ends an interval with the transaction's commit.
	ActionCommit ActionKind = iota
	// ActionAbort ends an interval with an abort.
	ActionAbort
	// ActionWait ends an interval because the transaction started
	// waiting.
	ActionWait
)

// Action is a maximal interval [Start, End) during which a transaction
// ran continuously; Kind says how it ended. Together the actions of
// all transactions form the execution E of the paper's Section 4.3.
type Action struct {
	Tx    int
	Start int
	End   int
	Kind  ActionKind
}

// Result is a completed simulation.
type Result struct {
	// Makespan is the tick at which the last commit happened, or the
	// tick limit when the run did not complete.
	Makespan int
	// Completed reports whether every transaction committed within the
	// tick limit; false indicates deadlock or livelock.
	Completed bool
	// CommitTick[i] is the commit tick of transaction i (-1 if none).
	CommitTick []int
	// AbortCount[i] is the number of aborts suffered by transaction i.
	AbortCount []int
	// Actions is the full action trace for analysis.
	Actions []Action
}

// Observer receives simulator events for debugging and detailed
// experiment traces: event is one of "restart", "acquire", "wait",
// "abort" and "commit"; other is the enemy transaction's ID for
// conflict events and -1 otherwise.
type Observer func(tick int, event string, tx, other int)

// Simulate runs the instance with every transaction under its own
// instance of the contention manager mgr builds, as the paper's
// per-thread managers are. The manager hears Begin at each attempt's
// start, Opened at each acquisition, Committed and Aborted, and rules
// once per tick on each unresolved conflict: a Wait ruling stalls the
// transaction for that tick, whatever its bound. maxTicks bounds the
// run; a run that exceeds it reports Completed=false (the signature of
// deadlock with always-wait managers or livelock with always-abort
// ones).
func Simulate(ins *Instance, mgr stm.ManagerFactory, maxTicks int) (*Result, error) {
	return SimulateObserved(ins, mgr, maxTicks, nil)
}

// SimulateObserved is Simulate with an event observer.
func SimulateObserved(ins *Instance, mgr stm.ManagerFactory, maxTicks int, obs Observer) (*Result, error) {
	if err := ins.Validate(); err != nil {
		return nil, err
	}
	if maxTicks <= 0 {
		maxTicks = defaultMaxTicks(ins)
	}
	n := len(ins.Specs)
	txs := make([]*SimTx, n)
	for i := range txs {
		txs[i] = &SimTx{Spec: ins.Specs[i], mgr: mgr(), timestamp: ins.Specs[i].Timestamp, holds: make(map[int]bool), commitAt: -1}
	}
	for _, seq := range ins.Sequences {
		for k := 1; k < len(seq); k++ {
			txs[seq[k]].pred = txs[seq[k-1]]
		}
	}
	// Dynamic timestamps are assigned in start order, after every
	// scripted stamp so mixed instances stay coherent.
	nextStamp := 0
	for _, spec := range ins.Specs {
		if spec.Timestamp >= nextStamp {
			nextStamp = spec.Timestamp + 1
		}
	}
	owner := make([]*SimTx, ins.Objects)
	res := &Result{
		CommitTick: make([]int, n),
		AbortCount: make([]int, n),
	}
	for i := range res.CommitTick {
		res.CommitTick[i] = -1
	}

	note := func(tick int, event string, tx, other int) {
		if obs != nil {
			obs(tick, event, tx, other)
		}
	}
	abort := func(victim *SimTx, tick int) {
		if victim.committed || victim.aborted {
			return
		}
		note(tick, "abort", victim.Spec.ID, -1)
		wasWaiting := victim.waiting
		victim.aborted = true
		victim.waiting = false // a dead attempt is not waiting
		victim.waitingOn = nil
		victim.aborts++
		victim.restartAt = tick + 1
		// A victim aborted while waiting has no running interval to
		// close: its last action already ended when the wait began.
		if !wasWaiting && victim.actionStart <= tick {
			res.Actions = append(res.Actions, Action{Tx: victim.Spec.ID, Start: victim.actionStart, End: tick + 1, Kind: ActionAbort})
		}
		for obj := range victim.holds {
			owner[obj] = nil
			delete(victim.holds, obj)
		}
		victim.mgr.Aborted(victim)
	}

	remaining := n
	tick := 0
	stalledNow := make([]bool, n)
	for ; remaining > 0 && tick < maxTicks; tick++ {
		// Pre-pass — clear stale waiting flags. In the paper's
		// continuous model a waiter stops waiting the instant its
		// enemy commits, aborts or starts waiting; if the flag
		// lingered into this tick a younger transaction processed
		// earlier in phase A could abort a transaction that is in
		// fact about to run, violating the pending-commit property
		// the greedy rules guarantee. (The race is real in the STM
		// implementation, where flag updates are not atomic with the
		// enemy's status change; the simulator models the idealized
		// semantics the theory assumes.)
		for _, tx := range txs {
			if tx.waiting && tx.waitingOn != nil {
				h := tx.waitingOn
				if h.committed || h.aborted || h.waiting {
					tx.waiting = false
					tx.waitingOn = nil
					// The resumed running interval starts now; keeping
					// the old start would let a commit action cover
					// ticks spent waiting and the pending-commit
					// checker would over-approve.
					tx.actionStart = tick
				}
			}
		}
		// Phase A — acquisitions. Every transaction's accesses due at
		// its current offset are attempted, in ID order, before any
		// transaction advances. This realizes the paper's cascade
		// timing: accesses "at time 1-ε" strictly precede commits "at
		// time 1" within the same tick.
		for _, tx := range txs {
			stalledNow[tx.Spec.ID] = false
			if tx.committed {
				continue
			}
			if tx.pred != nil && !tx.pred.committed {
				continue // sequence predecessor still running
			}
			if !tx.started {
				tx.started = true
				tx.actionStart = tick
				if tx.timestamp == DynamicTimestamp {
					tx.timestamp = nextStamp
					nextStamp++
				}
				note(tick, "start", tx.Spec.ID, -1)
				tx.mgr.Begin(tx)
			}
			if tx.aborted {
				if tick < tx.restartAt {
					continue
				}
				// Restart the attempt from scratch.
				note(tick, "restart", tx.Spec.ID, -1)
				tx.aborted = false
				tx.waiting = false
				tx.progress = 0
				tx.actionStart = tick
				tx.mgr.Begin(tx)
			}
			for _, acc := range tx.Spec.Accesses {
				if acc.Offset != tx.progress || tx.holds[acc.Object] {
					continue
				}
				holder := owner[acc.Object]
				if holder != nil && holder != tx && !holder.committed && !holder.aborted {
					switch d, _ := tx.mgr.ResolveConflict(tx, holder); d {
					case stm.AbortOther:
						abort(holder, tick)
					case stm.AbortSelf:
						abort(tx, tick)
					case stm.Wait:
						note(tick, "wait", tx.Spec.ID, holder.Spec.ID)
						if !tx.waiting {
							// The running interval pauses here.
							if tx.actionStart < tick {
								res.Actions = append(res.Actions, Action{Tx: tx.Spec.ID, Start: tx.actionStart, End: tick, Kind: ActionWait})
							}
							tx.waiting = true
						}
						tx.waitingOn = holder
						stalledNow[tx.Spec.ID] = true
					}
					if tx.aborted || stalledNow[tx.Spec.ID] {
						break
					}
				}
				if h := owner[acc.Object]; h == nil || h.committed || h.aborted {
					owner[acc.Object] = tx
					tx.holds[acc.Object] = true
					note(tick, "acquire", tx.Spec.ID, acc.Object)
					tx.mgr.Opened(tx, true)
				}
			}
			// A transaction whose due acquisitions all succeeded is no
			// longer waiting — and must not be seen as waiting by
			// enemies processed later in this same tick, or Rule 1
			// would kill a transaction that is in fact running.
			if !tx.aborted && !stalledNow[tx.Spec.ID] && tx.waiting {
				tx.waiting = false
				tx.waitingOn = nil
				tx.actionStart = tick
			}
		}
		// Phase B — progress and commits.
		for _, tx := range txs {
			if tx.committed || tx.aborted || stalledNow[tx.Spec.ID] || !tx.started {
				continue
			}
			if tx.restartAt > tick {
				continue
			}
			// A transaction with an unsatisfied due acquisition cannot
			// advance even if its conflict was "resolved" by aborting
			// the holder during this tick's phase A; re-check holds.
			due := true
			for _, acc := range tx.Spec.Accesses {
				if acc.Offset == tx.progress && !tx.holds[acc.Object] {
					due = false
					break
				}
			}
			if !due {
				continue
			}
			tx.progress++
			if tx.progress >= tx.Spec.Length {
				note(tick, "commit", tx.Spec.ID, -1)
				tx.committed = true
				tx.commitAt = tick + 1
				res.CommitTick[tx.Spec.ID] = tick + 1
				res.Actions = append(res.Actions, Action{Tx: tx.Spec.ID, Start: tx.actionStart, End: tick + 1, Kind: ActionCommit})
				if tick+1 > res.Makespan {
					res.Makespan = tick + 1
				}
				for obj := range tx.holds {
					owner[obj] = nil
					delete(tx.holds, obj)
				}
				tx.mgr.Committed(tx)
				remaining--
			}
		}
	}
	res.Completed = remaining == 0
	if !res.Completed {
		res.Makespan = maxTicks
	}
	for i, tx := range txs {
		res.AbortCount[i] = tx.aborts
	}
	return res, nil
}

func defaultMaxTicks(ins *Instance) int {
	total := 0
	for _, spec := range ins.Specs {
		total += spec.Length
	}
	// Quadratic headroom over the serial schedule: ample for any
	// progress-making manager, finite for livelocking ones.
	if total > 0 && total > math.MaxInt32/total {
		return math.MaxInt32
	}
	return total*total + total + 16
}
