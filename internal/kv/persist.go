package kv

// Durability plumbing: the store's bridge to internal/wal.
//
// Capture. When a WAL is attached, every mutation appends itself to the
// transaction's writeCapture as an absolute wal.Op (value or tombstone,
// with the expiry deadline), and the store arms that capture itself:
// Store.commit parks a pooled one in the transaction's local slot before
// the body runs, and capture arms one on the first write of any other
// transaction. If the transaction ends up writing anything, a commit
// hook appends the captured ops to the log while the commit still holds
// its write set's commit stripes — so the log's LSN order equals the
// per-key commit order (see Tx.OnCommit and DESIGN.md §Durability) — and
// the durability wait happens after the stripes are released, in
// pending.wait: at once for Store.Atomically's callers, when the reply
// is released for the server's (see outbox in server.go). A transaction
// the caller runs on the STM directly is logged without a wait.
//
// Snapshots. Save cuts a checkpoint that truncates the log; the server
// runs it for SAVE, for BGSAVE and on its schedule (WithSaveSchedule).
//
// Restore. Recovery applies the snapshot and log through Apply before
// the WAL is attached, so nothing is captured and replayed history is
// not re-logged.

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"

	"repro/internal/container"
	"repro/internal/stm"
	"repro/internal/wal"
)

// ErrNoWAL is returned by durability operations on a store without
// an attached log.
var ErrNoWAL = errors.New("kv: no wal attached")

// writeCapture accumulates one transaction's write set for logging,
// and carries what Store.commit's hook needs to log it: pooled captures
// build the hook (appendOps) once, not once per commit.
type writeCapture struct {
	ops       []wal.Op
	log       *wal.Log
	ticket    wal.Ticket
	appendOps func() // ticket = log.Append(ops)
}

// AttachWAL makes every subsequent write through the store durable:
// committed write sets are group-committed to l, and Save snapshots
// through it. Attach before serving traffic (after recovery); the
// store does not synchronize attachment against in-flight
// transactions. The caller keeps ownership of l's lifecycle and
// closes it after the store quiesces.
func (st *Store) AttachWAL(l *wal.Log) { st.log = l }

// WAL returns the attached log, or nil.
func (st *Store) WAL() *wal.Log { return st.log }

// Durable reports whether a WAL is attached.
func (st *Store) Durable() bool { return st.log != nil }

// capture appends op to the transaction's write capture. Mutating
// operations call it after their bucket write succeeds. Store.commit
// arms a pooled capture before the transaction body runs; any other
// transaction that writes to a store with a log — a caller's own
// stm.Atomically over the *Tx forms — gets one armed here, on its first
// write, with a commit hook that appends the write set to the log
// without waiting for it to reach disk. So every write set of a durable
// store is logged, whoever runs the transaction; such a transaction must
// not register a commit hook of its own (there is one per attempt).
// Without a log (recovery replay, memory-only stores) nothing is
// captured.
func (st *Store) capture(tx *stm.Tx, op wal.Op) {
	c, ok := tx.Local().(*writeCapture)
	if !ok {
		if st.log == nil {
			return
		}
		c = &writeCapture{}
		tx.SetLocal(c)
		tx.OnCommit(func() { st.log.AppendAsync(c.ops) })
	}
	c.ops = append(c.ops, op)
}

// SnapshotOps dumps every live entry as a canonical absolute op
// sequence, cut in one consistent transaction across all shards — the
// audit dump tests and the smoke compare two stores with, for quiet
// stores only: under writers a whole-store transaction may never
// commit, which is why Save does not use it. Dead entries are excluded.
// Per kind (appendEntryOps, which Save's chunks share): strings are
// one set-op carrying the deadline; hashes emit field sets sorted by
// name (so two stores with the same logical hash — whatever their
// table seeds — dump identically); lists emit back-pushes front
// to back; zsets emit member sets in (score, member) order; container
// entries with a TTL append one touch op. Replay through Apply runs
// the same typed code paths the live store did.
func (st *Store) SnapshotOps() ([]wal.Op, error) {
	now := st.now()
	var out []wal.Op
	err := st.s.Atomically(func(tx *stm.Tx) error {
		out = out[:0]
		return st.eachLive(tx, now, func(key string, e entry) (err error) {
			out, err = appendEntryOps(tx, out, key, e)
			return err
		})
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// appendEntryOps appends the canonical op sequence of key's entry e to
// out.
func appendEntryOps(tx *stm.Tx, out []wal.Op, key string, e entry) ([]wal.Op, error) {
	switch e.kind() {
	case kindString:
		return append(out, wal.Op{Key: key, Val: e.val, ExpireAt: e.deadline()}), nil
	case kindHash:
		pairs, err := sortedFields(tx, e.hash())
		if err != nil {
			return nil, err
		}
		for _, p := range pairs {
			out = append(out, wal.Op{Kind: wal.KindHash, Key: key, Field: p.K, Val: p.V})
		}
	case kindList:
		items, err := e.list().Items(tx)
		if err != nil {
			return nil, err
		}
		for _, v := range items {
			out = append(out, wal.Op{Kind: wal.KindList, Key: key, Val: v})
		}
	case kindZSet:
		keys, err := e.zset().byScore.Keys(tx)
		if err != nil {
			return nil, err
		}
		for _, k := range keys {
			score, member := zkeyDecode(k)
			out = append(out, wal.Op{Kind: wal.KindZSet, Key: key, Field: member, Val: formatScore(score)})
		}
	}
	if at := e.deadline(); at != 0 {
		out = append(out, wal.Op{Key: key, Touch: true, ExpireAt: at})
	}
	return out, nil
}

// chunkBuckets bounds a snapshot chunk: the shard's array variable plus
// this many buckets is the largest read set that stays in the
// transaction's inline slice (see stm.InlineReads), so revalidating a
// chunk never walks a map. The containers of the chunk's keys come on
// top of it.
const chunkBuckets = stm.InlineReads - 1

// Save cuts a point-in-time snapshot and truncates the log: the
// BGSAVE/SAVE implementation. Single-flight; see wal.Log.Snapshot for
// the rotate → cut → roll forward → rename → reap choreography. The cut
// is a walk of bounded read-only transactions, a chunk each: per shard,
// the buckets of one residue class (container.Map.EachIn), at most
// chunkBuckets of them, with the containers of the keys found there cut
// whole in the same transaction. Writers never wait for it and a chunk
// conflicts only with the writers of its own buckets, so Save finishes
// under any write load; what it costs them is one retried chunk per
// write that lands in a chunk's buckets while it is being read. Each
// chunk commits with a hook (see stm.Tx.OnCommit) that reads the log's
// position, which the commit stripes make exact: every record up to it
// that touches the chunk's keys is reflected in the chunk, none after
// is. The log's roll-forward turns the chunks into the state at the last
// chunk's position by appending the logged ops that are newer than
// their key's chunk — Save keeps, per chunk, the position it was cut
// at, because only this process's hash can tell which chunk a key is in.
//
// ctx is checked between chunks; a cancelled Save publishes nothing and
// leaves the previous snapshot and the whole log in place.
func (st *Store) Save(ctx context.Context) error {
	if st.log == nil {
		return ErrNoWAL
	}
	chunks := 0
	err := st.log.Snapshot(func(emit func([]wal.Op) error) (wal.Cut, error) {
		marks := make([]shardMarks, len(st.shards))
		var upTo uint64
		var buf []wal.Op // one chunk's ops; emit keeps nothing of it
		for i, sh := range st.shards {
			// The class count is fixed here, from the size the shard
			// has now: a power-of-two divisor of it, so that it divides
			// every later size too and each class holds chunkBuckets
			// buckets or fewer until the shard grows.
			n := sh.Buckets()
			per := 1
			for per*2 <= chunkBuckets && n%(per*2) == 0 {
				per *= 2
			}
			todo := make([]class, 0, n/per)
			for r := n/per - 1; r >= 0; r-- {
				todo = append(todo, class{r, n / per})
			}
			for len(todo) > 0 {
				if err := ctx.Err(); err != nil {
					return wal.Cut{}, err
				}
				c := todo[len(todo)-1]
				todo = todo[:len(todo)-1]
				ops, at, wide, err := st.cutChunk(sh, c, buf[:0])
				if err != nil {
					return wal.Cut{}, err
				}
				if wide {
					// The shard has doubled since c was sized.
					todo = append(todo, class{c.r + c.of, 2 * c.of}, class{c.r, 2 * c.of})
					continue
				}
				if err := emit(ops); err != nil {
					return wal.Cut{}, err
				}
				buf = ops
				chunks++
				marks[i].cut = append(marks[i].cut, chunkMark{c, at})
				upTo = at // positions only grow: each chunk reads the log's after the one before
			}
			marks[i].flatten()
		}
		return wal.Cut{UpTo: upTo, Reflected: func(op wal.Op, lsn uint64) bool {
			i := st.shardIndex(op.Key)
			return lsn <= marks[i].at(st.shards[i], op.Key)
		}}, nil
	})
	if err == nil {
		st.lastChunks.Store(int64(chunks))
	}
	return err
}

// SaveStats reports Save's own counters, beside the log's (wal.Stats):
// how many chunks the latest completed snapshot was cut in, and how
// many chunk transactions have had to run again since the store was
// created — a chunk retries when a write lands in its buckets, or in a
// container it holds, while it is being read.
func (st *Store) SaveStats() (lastChunks, chunkRetries int64) {
	return st.lastChunks.Load(), st.chunkRetries.Load()
}

// class is the residue class (r, of) of a shard's buckets.
type class struct{ r, of int }

// chunkMark is one committed chunk: its class and the log position it
// was cut at.
type chunkMark struct {
	class
	at uint64
}

// shardMarks maps a shard's keys to the position their chunk was cut
// at. The walk appends to cut; flatten then spreads the marks over the
// classes of the finest modulus any chunk used, so that a lookup is one
// hash.
type shardMarks struct {
	cut []chunkMark
	of  int
	lsn []uint64
}

func (m *shardMarks) flatten() {
	for _, c := range m.cut {
		m.of = max(m.of, c.of)
	}
	m.lsn = make([]uint64, m.of)
	for _, c := range m.cut {
		for r := c.r; r < m.of; r += c.of {
			m.lsn[r] = c.at
		}
	}
	m.cut = nil
}

func (m *shardMarks) at(sh *container.Map[string, entry], key string) uint64 {
	return m.lsn[sh.ClassOf(key, m.of)]
}

// cutChunk runs one chunk transaction over class c of shard sh and
// returns its live entries as ops, appended to buf, with the log
// position the chunk was cut at — or wide, when the shard has grown past
// chunkBuckets buckets in the class, in which case nothing was cut.
func (st *Store) cutChunk(sh *container.Map[string, entry], c class, buf []wal.Op) (ops []wal.Op, at uint64, wide bool, err error) {
	now := st.now()
	var retries int64
	err = st.s.Atomically(func(tx *stm.Tx) error {
		ops, wide, retries = buf, false, tx.Aborts()
		n, err := sh.BucketCount(tx)
		if err != nil {
			return err
		}
		if n/c.of > chunkBuckets {
			wide = true
			return nil
		}
		err = sh.EachIn(tx, c.r, c.of, func(key string, e entry) (err error) {
			if !e.dead(now) {
				ops, err = appendEntryOps(tx, ops, key, e)
			}
			return err
		})
		if err != nil {
			return err
		}
		if st.chunkCut != nil {
			st.chunkCut(n / c.of)
		}
		tx.OnCommit(func() { at = st.log.Stats().Enqueued })
		return nil
	})
	st.chunkRetries.Add(retries)
	return ops, at, wide, err
}

// Apply replays one recovered write set (or snapshot batch) in a
// single transaction, in record order. Wire it to wal.Recover before
// AttachWAL, so that nothing it replays is logged again. Ops carry
// absolute values, so replay over a snapshot is idempotent. Entries
// already past their deadline load as dead and read as absent,
// preserving TTL semantics across a restart as long as the store clock
// survives one (the server anchors it to the unix epoch when running
// durable).
func (st *Store) Apply(ops []wal.Op) error {
	now := st.now()
	err := st.s.Atomically(func(tx *stm.Tx) error {
		for i := 0; i < len(ops); {
			j := i + 1
			for listPush(ops[i]) && j < len(ops) && listPush(ops[j]) &&
				ops[j].Key == ops[i].Key && ops[j].Front == ops[i].Front {
				j++
			}
			if err := st.applyOp(tx, now, ops[i:j]); err != nil {
				return err
			}
			i = j
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("kv: apply: %w", err)
	}
	return nil
}

// listPush reports whether op pushes a list element.
func listPush(op wal.Op) bool { return op.Kind == wal.KindList && !op.Del && !op.Touch }

// applyOp replays ops[0] through the same typed mutation the live
// store ran. ops is longer only for a stretch of pushes at one end of
// one list, which it replays as one push, as the LPUSH or RPUSH that
// logged them (or the snapshot's back-pushes) would. A kind mismatch
// (a hash op against a list key, say) surfaces as ErrWrongType: a log
// the store wrote cannot contain one, so hitting it means the log is
// lying and replay must not guess.
func (st *Store) applyOp(tx *stm.Tx, now int64, ops []wal.Op) error {
	op := ops[0]
	var err error
	switch {
	case op.Touch:
		_, err = st.touchTx(tx, now, op.Key, op.ExpireAt)
	case op.Kind == wal.KindHash:
		if op.Del {
			_, err = st.HDelTx(tx, now, op.Key, op.Field)
		} else {
			_, err = st.HSetTx(tx, now, op.Key, op.Field, op.Val)
		}
	case op.Kind == wal.KindList:
		if op.Del {
			_, _, err = st.popTx(tx, now, op.Key, op.Front)
		} else {
			vals := make([]string, len(ops))
			for i, o := range ops {
				vals[i] = o.Val
			}
			_, err = st.pushTx(tx, now, op.Key, op.Front, vals)
		}
	case op.Kind == wal.KindZSet:
		if op.Del {
			_, err = st.ZRemTx(tx, now, op.Key, op.Field)
		} else {
			var score float64
			score, err = strconv.ParseFloat(op.Val, 64)
			if err != nil {
				return fmt.Errorf("zset op score %q: %w", op.Val, err)
			}
			_, err = st.ZAddTx(tx, now, op.Key, op.Field, score)
		}
	case op.Del:
		_, err = st.DelTx(tx, now, op.Key)
	default:
		err = st.putTx(tx, op.Key, entry{val: op.Val}.withDeadline(op.ExpireAt))
	}
	return err
}

// capturePool recycles Store.commit's write captures.
var capturePool = sync.Pool{New: func() any {
	c := &writeCapture{}
	c.appendOps = func() { c.ticket = c.log.Append(c.ops) }
	return c
}}
