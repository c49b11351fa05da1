// Package analysis holds stmlint: a go/analysis suite encoding the
// transactional contracts the Go compiler cannot check. The engine
// (internal/stm) executes a transaction body any number of times
// before one attempt commits — the contention manager, not the
// caller, decides who aborts and retries — and sessions
// recycle Tx descriptors between unrelated transactions. DESIGN.md
// documents the resulting rules for user code; the analyzers here
// enforce them:
//
//   - txpure: closures and functions executed inside a transaction
//     must be retry-safe. Channel operations, mutex use, goroutine
//     spawns, I/O, wall-clock and randomness reads, and accumulating
//     writes to captured variables are flagged. Suppress a deliberate
//     violation with //stm:impure(reason).
//
//   - txescape: a *stm.Tx must not outlive the attempt it belongs
//     to: storing one in a struct field, global, map, slice or
//     channel, or handing one to a spawned goroutine, is exactly the
//     descriptor-recycling ABA hazard DESIGN.md §2 argues around (and
//     what keeps Tx.Halt confined to a running attempt). Suppress
//     with //stm:escape(reason).
//
//   - hookreentry: a function registered with Tx.OnCommit runs
//     inside the stripe-held commit window (DESIGN.md §Durability);
//     calling back into the engine from there — Atomically, the
//     typed Var operations, or any same-package function that
//     transitively does either — is a self-deadlock. Suppress with
//     //stm:reentrant(reason).
//
// Each suppression comment requires a non-empty reason; a bare
// //stm:impure (or an empty reason) is itself reported. A
// suppression that no longer suppresses anything is reported when
// the analyzer runs with -unused-suppressions (exposed by cmd/stmlint
// as a single top-level flag fanned out to all three analyzers).
//
// Run the suite with:
//
//	go run ./cmd/stmlint ./...
//
// which also bundles a selected set of upstream vet passes; CI runs
// it as a required step.
package analysis
