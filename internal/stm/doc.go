// Package stm implements an obstruction-free software transactional
// memory in the style of DSTM (Herlihy, Luchangco, Moir, Scherer, PODC
// 2003) and its C# descendant SXM, the system used for the experimental
// evaluation in Guerraoui, Herlihy and Pochon, "Toward a Theory of
// Transactional Contention Managers" (PODC 2005/2006).
//
// # API
//
// Transactional data lives in generic Var[T] handles, accessed inside
// transactions with the package-level Read, Write, Update, UpdateErr
// and ReadAll functions. Transactions run from any goroutine through
// the STM itself:
//
//	s := stm.New(stm.WithManagerFactory(core.MustFactory("greedy")))
//	account := stm.NewVar(10)
//	err := s.Atomically(func(tx *stm.Tx) error {
//		return stm.Update(tx, account, func(balance int) int {
//			return balance + 1
//		})
//	})
//
// Each Atomically call borrows a pooled session carrying a private
// contention-manager instance (built by the factory the STM was
// configured with), so any number of goroutines may call it
// concurrently — a goroutine-per-request server needs no worker
// pinning. Atomic is the entry point for transactions that return a
// value, and Snapshot is the packaged consistent multi-Var read. A
// logical transaction keeps its timestamp and its manager instance
// across retries — what the paper's one-transaction-per-thread model
// (and the greedy bound of Theorem 1) asks of a thread — so there is no
// separate pinned-thread surface; a fixed-thread sweep is N goroutines
// calling Atomically.
//
// The whole flow is compile-time checked: no interface to implement,
// no type assertions, no panic surface. By default a transaction's private
// copy of a value is made by plain assignment, which is correct for
// plain data and for payloads whose pointers, slices and maps are
// treated as immutable (handles such as *Var are immutable and may be
// shared freely between versions). Payloads with mutable indirect
// state install a deep-copy strategy with NewVarCloner or
// NewNamedVarCloner. Transactional code must propagate the error
// returned by Read, Write, Update and friends: a non-nil error means
// the transaction has been aborted by an enemy, and Atomically will
// retry it with the same timestamp.
//
// Statistics are atomic per session and aggregated by STM.TotalStats,
// which is safe to call at any time, concurrently with running
// transactions — no quiescence required. Every abort is charged to
// exactly one cause (AbortsEnemy + AbortsValidation + AbortsCASRace ==
// Aborts; user errors count separately in AbortsUser). For per-object
// and per-enemy attribution beyond the counters, WithTracer installs
// the flight recorder (trace.go): a sampled per-session event log of
// begins, opens, conflicts, aborts and commits, delivered to a
// TraceSink after the commit stripes release. Transactions are named
// with SetLabel (labels interned once via InternLabel), objects via
// NewNamedVar. Independently of the recorder, every transaction is a
// runtime/trace task and every attempt a region whenever go tool trace
// collection is live (TestRuntimeTraceTasks). The hook sites are nil
// checks — a world without a tracer pays nothing (enforced by
// TestTracerDisabledAllocParity).
//
// # The engine
//
// Var[T] is the DSTM transactional object. Each Var holds a locator:
// (owner transaction, pre-image) followed by the new version in the
// same allocation, installed by compare-and-swap; the pre-image is let
// go once the owner commits, so a committed object keeps none of its
// history alive. The locator machinery is untyped and unexported — a
// version is one allocation, its locator then its T, and the locator
// is what the engine reads, records and validates — so one read set
// and one conflict protocol serve every payload type, and nothing
// outside this package can reach a locator.
// A transaction commits by changing its status word from active to
// committed with a single compare-and-swap; one transaction aborts
// another the same way. Conflict detection is eager: a transaction
// discovers a conflict the moment it opens an object another active
// transaction has open for writing, and at that moment it consults its
// contention manager, which decides whether to abort the enemy or to
// wait. This is exactly the structure the paper assumes: correctness
// (serializability) is the STM's job, progress (liveness) is the
// contention manager's job. Failure injection (the prematurely stopped
// transactions of the paper's Section 6) is Tx.Halt, valid only while
// the attempt's function is running.
//
// Transactions carry the three pieces of state the paper's greedy
// manager needs (Section 3):
//
//   - a timestamp, acquired when the logical transaction first begins
//     and retained across aborts and retries;
//   - an atomic status field (active, committed, aborted) changed only
//     by compare-and-swap;
//   - a public waiting flag that tells other transactions whether this
//     one is currently waiting for an enemy.
//
// Reads are invisible: readers record the version they saw and
// revalidate their read set whenever the global commit clock advances
// and at commit time, so committed transactions are serializable and
// reads are consistent (a transaction never observes two snapshots that
// no serial execution could produce without subsequently aborting).
//
// # Commit hooks
//
// Tx.OnCommit registers a function that runs if, and only if, the
// attempt commits, inside the commit itself. A writer's hook fires after
// its status CAS with the commit stripes of its write set still held, so
// the hooks of writers that touched a common object run in their commit
// order; the kv store appends to its write-ahead log from there. A
// read-only transaction ordinarily commits without taking any stripe;
// one that registered a hook locks the stripes of everything it read,
// validates, fires the hook and unlocks, which orders its hook against
// the hook of every writer it read from — each has returned, or has not
// begun and was not seen. A writer's values are visible from its status
// CAS on, before its hook runs, so nothing weaker (not the commit clock)
// tells a reader that what it saw has been logged; the kv store's
// snapshot chunks commit this way to learn the exact log position they
// were cut at. Hooks must not start or touch a transaction (stmlint's
// hookreentry).
package stm
