// Package kv is a sharded transactional key-value store built on the
// typed STM facade — the serving-layer workload the ROADMAP's
// production north star points at, and the structure the stmkv server
// exposes over its RESP-lite protocol.
//
// Layout: keys are hashed to one of a fixed number of shards, and each
// shard is a container.Map from key to entry (value, expiry) — a
// chained hash map whose bucket array itself lives in a Var, so
// resizing a shard is an ordinary transactional write racing
// concurrent operations, serialized by the STM like any other
// conflict. The map grows itself: the write that creates a key in an
// over-long chain doubles the shard in the same transaction, so the
// store has no maintenance step.
//
// Entries are typed: besides plain strings, a key may hold a hash (a
// per-key field Map), a list (container.Deque) or a sorted set (an
// OMap score index plus a member Map), with Redis semantics — a
// command against the wrong kind fails with ErrWrongType, TTLs attach
// to whole keys, and a container emptied of its last element deletes
// the key. Operations inside a container touch only that container's
// Vars, so transactions on different fields of one hash, or opposite
// ends of one list, do not conflict.
//
// The surface is Store.Atomically plus the *Tx forms (GetTx, SetTx,
// HSetTx, LPushTx, ZAddTx, ExpireTx, TTLTx…): Atomically runs one
// transaction on a pooled session, and the *Tx forms compose inside
// it. The server runs every command that way, and MULTI/EXEC replays a
// queued command block inside a single Atomically, making cross-key
// transfers (and cross-kind moves like list→zset promotion)
// serializable against concurrent singleton operations and shard
// resizes. Eight one-shot forms (Get, Set, SetTTL, Del, Incr, MGet,
// MSet, RPush) each wrap one *Tx form in its own transaction; they
// remain only because the bench/ module calls them.
//
// Expiry is lazy: a read treats a dead entry as absent without
// writing, a write replaces or removes only the key it names, and
// Sweep reaps shard by shard, one transaction each (the server runs
// one shard per tick in the background: WithSweep). A transactional
// flag per shard, set by every write of a deadline and cleared by the
// sweep that keeps none, lets a sweep of a shard without TTLs end
// after one read instead of walking every bucket. Time comes from the
// store's clock (monotonic nanoseconds; injectable for tests), sampled
// once per logical transaction so retries replay identical decisions.
//
// Durability is optional: AttachWAL hooks the store to an
// internal/wal log, after which every committed top-level write set
// (including swept tombstones) is captured through the engine's
// post-commit hook and group-committed to disk; Save cuts a
// consistent snapshot, and Apply replays a recovered op stream into
// an empty store. See DESIGN.md §Durability for the ordering
// argument and persist.go for the capture machinery.
package kv
