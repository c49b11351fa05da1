// Package repro is a Go reproduction of Guerraoui, Herlihy and Pochon,
// "Toward a Theory of Transactional Contention Managers" (PODC
// 2005/2006): an obstruction-free software transactional memory with a
// typed generic API (stm.Var[T] / Read / Write / Update / UpdateErr /
// Snapshot) and goroutine-agnostic execution (STM.Atomically over
// pooled sessions, with a per-session contention manager built by the
// STM's ManagerFactory) over a DSTM-style engine, pluggable contention
// managers (internal/stm, internal/core), the paper's benchmark data
// structures (internal/intset; its skiplist is the container
// subsystem's ordered map), a transactional container subsystem —
// hash set, deque (the queue figure runs it as a FIFO) and ordered
// map on Var[T], with a shared
// transactional-resize Table (internal/container) — a sharded
// TTL-aware key-value store and its RESP-lite protocol
// (internal/kv, internal/resp) served over TCP by cmd/stmkv, a
// durability subsystem — group-committed write-ahead log with CRC32C
// framing, point-in-time snapshots and torn-tail-tolerant recovery
// (internal/wal), hooked into the store through the engine's
// post-commit hook and replayed on boot by stmkv -data — the
// throughput harness, whose figures each fix their structure,
// lookup/insert/delete/range op mix and key distribution as values
// (internal/harness, internal/workload),
// and the scheduling-theory side — task systems, list and optimal
// schedulers, the discrete transaction simulator, the Section 4
// adversary and the Lemma 7 graph machinery (internal/sched,
// internal/graph).
//
// The engine's transactional contracts (retry-safe bodies, no
// descriptor escape, no commit-hook re-entry) are machine-checked:
// run `go run ./cmd/stmlint ./...` — a go/analysis suite
// (internal/analysis) that CI requires to pass; deliberate
// violations carry //stm:impure(reason)-style suppressions (see
// DESIGN.md, "Static analysis").
//
// See DESIGN.md for the architecture (engine / sessions / Var[T] /
// managers / containers / kv server / durability) and the
// hardware substitutions; cmd/stmbench (figures 1-10, -audit,
// tables and -json output) and cmd/makespan for the experiment
// drivers; cmd/stmkv for the RESP-lite server, durable with -data,
// whose typed load and audit live in internal/kvclient and run as
// cmd/stmkv's TestSmoke and TestCrashRestart (see cmd/stmkv/README.md);
// and examples/ for runnable programs (each verifies its own
// invariant and exits non-zero on violation, so CI smoke-runs them).
package repro
