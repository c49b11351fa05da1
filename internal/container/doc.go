// Package container provides typed transactional data structures
// composed from the stm.Var facade, widening the benchmark suite
// beyond the paper's four integer-set applications with the container
// shapes real key-value systems are built from:
//
//   - Map[K, V]: the chained hash map — a growable array of bucket
//     variables, each holding an immutable chain of bindings, so
//     operations on different buckets are disjoint and contention
//     scales with bucket occupancy rather than structure size (the
//     friendliest profile for every manager). The array itself lives
//     in a Var (Table), and the insert that leaves a chain longer than
//     GrowChain doubles it inside its own transaction: no element
//     count, no signal, no maintenance call. HashSet[T] is
//     Map[T, struct{}]; internal/kv's shards and per-key field tables
//     are Maps too;
//   - Queue[T]: a Michael–Scott-style two-variable FIFO whose head and
//     tail are permanent hot spots — every producer conflicts with
//     every producer and every consumer with every consumer, the
//     adversarial inverse of the hash set;
//   - Deque[T]: the Queue generalized to push and pop at both ends,
//     as a chain of runs of up to 32 elements behind one Var each
//     (two sentinels, per-run prev/next Vars, per-end net-push
//     counters giving an O(1) Len that does not re-couple the ends; a
//     push never grows the other end's run) — the kv store's list
//     kind, so LPUSH and RPUSH on one hot key commit in parallel;
//   - OMap[K, V]: an ordered map over a transactional skip list (the
//     repository's only one: intset.SkipList is an OMap[int, struct{}]),
//     whose Range runs as a consistent multi-variable read —
//     a long read-only scan competing with point writers, the pattern
//     the paper notes backoff-style managers handle poorly.
//
// Every operation takes a *stm.Tx and composes inside larger
// transactions: a dequeue-then-put across a Queue and an OMap in one
// transaction is atomic, and its conflicts are arbitrated by the same
// contention manager as any other. Run operations through
// STM.Atomically / stm.Atomic from any goroutine.
package container
