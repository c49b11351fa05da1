package kv

import (
	"fmt"
	"hash/maphash"
	"sync/atomic"
	"time"

	"repro/internal/container"
	"repro/internal/stm"
	"repro/internal/wal"
)

// entry is one key's record: the value a shard (a container.Map) binds
// the key to, copied whole when the map rebuilds a chain. It is two
// words so that a string key's chain node is 48 bytes (key, entry,
// next): val is a string's value, and m is everything a key may carry
// beyond it — a deadline, a container — or nil for a string without a
// TTL, which is most keys (see types.go for the kinds).
type entry struct {
	val string
	m   *meta
}

// meta is an entry's deadline and container, shared by every copy of
// the entry and never mutated: a write that changes either builds a
// new one (touchTx), a write that keeps both reuses it (IncrTx). The
// container pointers themselves are immutable too; their *contents*
// live behind the containers' own stm.Vars, so an entry copied across
// chain rebuilds keeps one transactional value. 24 bytes: a TTL'd
// string costs its 48-byte node plus this.
type meta struct {
	// expireAt is the store-clock instant the entry dies, in
	// nanoseconds; zero means no expiry.
	expireAt int64
	// c is the key's container — a *container.Map[string, string]
	// (hash), *container.Deque[string] (list) or *zset — whose dynamic
	// type is the key's kind; nil for a string.
	c any
}

// deadline returns the entry's expiry instant, zero for none.
func (e entry) deadline() int64 {
	if e.m == nil {
		return 0
	}
	return e.m.expireAt
}

// dead reports whether the entry has expired at instant now.
func (e entry) dead(now int64) bool {
	at := e.deadline()
	return at != 0 && at <= now
}

// withDeadline returns e expiring at at (zero: never), its container
// kept. The meta is rebuilt, never edited: an older copy of e may
// still sit in a chain another transaction reads.
func (e entry) withDeadline(at int64) entry {
	var c any
	if e.m != nil {
		c = e.m.c
	}
	if at == 0 && c == nil {
		return entry{val: e.val}
	}
	return entry{val: e.val, m: &meta{expireAt: at, c: c}}
}

// NoTTL is the TTL reported for a live key with no expiry set.
const NoTTL time.Duration = -1

// KV is one key-value pair, the unit of MSet.
type KV struct {
	K, V string
}

// Store is the sharded transactional key-value store. Handles are safe
// for concurrent use from any goroutine: every operation runs on a
// pooled STM session, and multi-key operations are single atomic
// transactions.
type Store struct {
	s      *stm.STM
	seed   maphash.Seed
	shards []*container.Map[string, entry]
	// expiring[i] is true while shard i may hold an entry with a
	// deadline: putEntry sets it, a sweep that keeps no such entry
	// clears it, and a sweep of a shard whose flag is false is one read
	// (see SweepShard).
	expiring []*stm.Var[bool]
	now      func() int64
	// log, when attached, receives every committed write set (see
	// persist.go; nil for a purely in-memory store).
	log *wal.Log
	// Save's counters (see SaveStats). chunkCut, when set, is told the
	// number of buckets each chunk attempt read; only tests set it, to
	// hold Save to its bound.
	chunkRetries atomic.Int64
	lastChunks   atomic.Int64
	chunkCut     func(buckets int)
}

// Option configures a Store.
type Option func(*config)

type config struct {
	shards int
	// buckets is each shard's initial bucket count: 8, which shards
	// grow past on demand; only tests change it.
	buckets int
	clock   func() int64
}

// WithShards sets the shard count (rounded up to a power of two,
// minimum 1; default 16). Shards bound the blast radius of a resize:
// growing one shard's bucket array conflicts only with operations on
// that shard's keys.
func WithShards(n int) Option {
	return func(c *config) { c.shards = n }
}

// WithClock replaces the store's time source — monotonic nanoseconds,
// used only to order expiries. Tests inject a hand-advanced clock to
// make expiry deterministic.
func WithClock(clock func() int64) Option {
	return func(c *config) { c.clock = clock }
}

// New creates an empty store executing its transactions on s.
func New(s *stm.STM, opts ...Option) *Store {
	cfg := config{shards: 16, buckets: 8}
	for _, opt := range opts {
		opt(&cfg)
	}
	n := 1
	for n < cfg.shards {
		n *= 2
	}
	if cfg.clock == nil {
		start := time.Now()
		cfg.clock = func() int64 { return int64(time.Since(start)) }
	}
	st := &Store{
		s:        s,
		seed:     maphash.MakeSeed(),
		shards:   make([]*container.Map[string, entry], n),
		expiring: make([]*stm.Var[bool], n),
		now:      cfg.clock,
	}
	for i := range st.shards {
		// Shard tables are named so the flight recorder attributes
		// bucket-chain and resize conflicts to a shard rather than an
		// anonymous stripe; per-key containers carry their own labels
		// (see containerEntry).
		st.shards[i] = container.NewMap[string, entry](fmt.Sprintf("kv:shard:%d", i), cfg.buckets, maphash.String)
		st.expiring[i] = stm.NewNamedVar(fmt.Sprintf("kv:ttl:%d", i), false)
	}
	return st
}

// armedShards counts the shards whose expiring flag is set, without a
// transaction — each flag is an independent committed snapshot. For
// INFO and /metrics.
func (st *Store) armedShards() int {
	n := 0
	for _, f := range st.expiring {
		if f.Peek() {
			n++
		}
	}
	return n
}

// STM returns the engine the store executes its transactions on —
// the hook for callers that report engine statistics alongside store
// state (the server's smoke mode).
func (st *Store) STM() *stm.STM { return st.s }

// Now samples the store's clock. Callers composing *Tx operations draw
// now once, outside the transaction, so retries replay identical
// expiry decisions.
func (st *Store) Now() int64 { return st.now() }

// Shards returns the shard count.
func (st *Store) Shards() int { return len(st.shards) }

// BucketsPerShard snapshots each shard's committed bucket count — a
// growth observability hook for tests and stats, not a consistent
// read.
func (st *Store) BucketsPerShard() []int {
	out := make([]int, len(st.shards))
	for i, sh := range st.shards {
		out[i] = sh.Buckets()
	}
	return out
}

// PeekLen counts live keys without a transaction: each bucket is an
// independent committed snapshot, so the total is approximate under
// concurrent writes — the observability counterpart of DBSIZE, which
// pays for exactness with a whole-store read set. Expired-but-unswept
// entries are excluded, like everywhere else.
func (st *Store) PeekLen() int64 {
	now := st.now()
	var total int64
	for _, sh := range st.shards {
		sh.Peek(func(_ string, e entry) {
			if !e.dead(now) {
				total++
			}
		})
	}
	return total
}

// shardIndex maps a key to its shard's index.
func (st *Store) shardIndex(key string) int {
	return int(maphash.String(st.seed, key) & uint64(len(st.shards)-1))
}

// shard maps a key to its shard.
func (st *Store) shard(key string) *container.Map[string, entry] {
	return st.shards[st.shardIndex(key)]
}

// Atomically runs fn as one atomic transaction against the store,
// sampling the clock once so retries replay identical expiry
// decisions. It is the composition surface: the server's EXEC
// replays a whole queued command block through one call, so the block
// is serializable against every concurrent singleton operation.
// When a WAL is attached the transaction's write set is captured and
// group-committed: Atomically returns only once the record is
// durably on disk (or surfaces the log's error — the memory commit
// stands either way; a log that cannot persist is poisoned and the
// server should be restarted into recovery). It is commit followed by
// wait; the server's handler takes the two steps apart so that one
// connection's pipelined writes share a group commit.
func (st *Store) Atomically(fn func(tx *stm.Tx, now int64) error) error {
	p, err := st.commit(fn)
	if err != nil {
		return err
	}
	return p.wait()
}

// pending is the durability a committed transaction is still owed: the
// WAL ticket of its write set. The zero value owes nothing — a store
// without a WAL, a transaction that wrote nothing.
type pending struct {
	ticket wal.Ticket
}

// commit is Atomically up to the durability wait: when it returns nil
// the transaction is committed in memory, visible to every other
// transaction, and — with a WAL attached — its write set is framed into
// the log in commit order. The caller owes the returned pending a wait
// before it may tell anyone the write happened.
func (st *Store) commit(fn func(tx *stm.Tx, now int64) error) (pending, error) {
	now := st.now()
	if st.log == nil {
		return pending{}, st.s.Atomically(func(tx *stm.Tx) error { return fn(tx, now) })
	}
	// The log keeps nothing of the capture (see wal.Log.Append), so it
	// goes back to the pool here, whether or not the hook fired.
	c := capturePool.Get().(*writeCapture)
	c.log, c.ticket = st.log, wal.Ticket{}
	err := st.s.Atomically(func(tx *stm.Tx) error {
		// Re-arm per attempt: the local slot does not survive a retry.
		c.ops = c.ops[:0]
		tx.SetLocal(c)
		if err := fn(tx, now); err != nil {
			return err
		}
		if len(c.ops) > 0 {
			tx.OnCommit(c.appendOps)
		}
		return nil
	})
	p := pending{c.ticket}
	capturePool.Put(c)
	return p, err
}

// ready reports, without blocking, whether wait would return at once.
func (p pending) ready() bool { return p.ticket.Done() }

// wait blocks until the transaction's record is durably on disk — after
// tryCommit released the commit stripes, so the fsync latency is off
// the engine's critical path — and returns the log's error if it is
// not.
func (p pending) wait() error {
	if err := p.ticket.Wait(); err != nil {
		return fmt.Errorf("kv: wal: %w", err)
	}
	return nil
}

// Sweep reaps expired entries, one transaction per shard so the write
// set stays bounded, and returns how many entries were removed. It is
// the expiry backstop: reads treat a dead entry as absent without
// writing and writers leave their neighbours alone, so nothing else
// reclaims one. Shards that hold no deadline cost one read each.
func (st *Store) Sweep() (int, error) {
	removed := 0
	for i := range st.shards {
		n, err := st.SweepShard(i)
		removed += n
		if err != nil {
			return removed, err
		}
	}
	return removed, nil
}

// SweepShard reaps shard i's expired entries in one transaction — the
// unit the server's background sweeper schedules, so one sweep never
// conflicts with more than one shard's traffic. With a WAL attached,
// every reaped key is logged as a tombstone: logically redundant
// (replayed entries past their deadline read as absent anyway), but
// it keeps the replayed physical state in step with the swept one and
// compacts the history a snapshot would otherwise carry forward.
//
// The shard's expiring flag is the transaction's first read; when it is
// false the sweep ends there. A walk that keeps no entry with a
// deadline clears the flag in the same transaction. A TTL writer reads
// the flag and writes a bucket, a clearing sweep reads every bucket and
// writes the flag, so of two that overlap one retries (DESIGN.md §KV,
// Expiry).
func (st *Store) SweepShard(i int) (n int, err error) {
	err = st.Atomically(func(tx *stm.Tx, now int64) error {
		n = 0
		armed, err := stm.Read(tx, st.expiring[i])
		if err != nil || !armed {
			return err
		}
		// Prune asks doomed about every binding, and keeps exactly the
		// ones it answers false for.
		keptDeadline := false
		reaped, err := st.shards[i].Prune(tx, func(_ string, e entry) bool {
			if e.dead(now) {
				return true
			}
			if e.deadline() != 0 {
				keptDeadline = true
			}
			return false
		})
		if err != nil {
			return err
		}
		for _, key := range reaped {
			st.capture(tx, wal.Op{Key: key, Del: true})
		}
		n = len(reaped)
		if !keptDeadline {
			return stm.Write(tx, st.expiring[i], false)
		}
		return nil
	})
	return n, err
}

// CheckInvariants verifies the store's structural invariants in one
// consistent transaction: every entry sits in the shard and bucket its
// key hashes to, no key appears twice, every typed value is
// internally consistent (hash field placement, deque link symmetry
// and counters, zset index↔skip-list bijection) and non-empty, and no
// entry, live or dead, carries a deadline in a shard whose expiring
// flag is false. The harness audit hook and the server's smoke mode
// run it after their hammers.
func (st *Store) CheckInvariants() error {
	return st.s.Atomically(func(tx *stm.Tx) error {
		for si, sh := range st.shards {
			if err := sh.CheckInvariants(tx); err != nil {
				return fmt.Errorf("kv: shard %d: %w", si, err)
			}
			armed, err := stm.Read(tx, st.expiring[si])
			if err != nil {
				return err
			}
			err = sh.Each(tx, func(key string, e entry) error {
				if st.shard(key) != sh {
					return fmt.Errorf("kv: key %q in shard %d, hashes elsewhere", key, si)
				}
				if e.deadline() != 0 && !armed {
					return fmt.Errorf("kv: key %q has a deadline, shard %d's expiring flag is clear", key, si)
				}
				if err := e.checkValue(tx); err != nil {
					return fmt.Errorf("kv: key %q: %w", key, err)
				}
				return nil
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
}
