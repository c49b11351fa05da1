package kv

import (
	"errors"
	"math"
	"strconv"
	"time"

	"repro/internal/stm"
	"repro/internal/wal"
)

// ErrNotInteger is returned by Incr when the key holds a value that
// does not parse as a signed 64-bit integer. It surfaces out of the
// transaction unchanged (a user error, not a conflict), so the whole
// transaction — an EXEC block included — aborts atomically.
var ErrNotInteger = errors.New("kv: value is not an integer")

// findEntry reads key's live entry inside tx at instant now — the
// read-only lookup under GetTx, TTLTx and IncrTx. Expired entries read as
// absent without writing, so a hot read never acquires ownership.
func (st *Store) findEntry(tx *stm.Tx, now int64, key string) (entry, bool, error) {
	e, ok, err := st.shard(key).Get(tx, key)
	if err != nil || !ok || e.dead(now) {
		return entry{}, false, err
	}
	return e, true, nil
}

// GetTx reads key's string value inside tx at instant now (see
// findEntry for the expiry contract). A live key of a container kind
// yields ErrWrongType.
func (st *Store) GetTx(tx *stm.Tx, now int64, key string) (string, bool, error) {
	e, ok, err := st.typedEntry(tx, now, key, kindString)
	if err != nil || !ok {
		return "", false, err
	}
	return e.val, true, nil
}

// SetTx writes key=val inside tx at instant now. A ttl > 0 arms
// expiry at now+ttl; ttl <= 0 stores the key without expiry (and, like
// Redis SET, clears any previous TTL).
func (st *Store) SetTx(tx *stm.Tx, now int64, key, val string, ttl time.Duration) error {
	var expireAt int64
	if ttl > 0 {
		expireAt = now + int64(ttl)
		if expireAt < now {
			expireAt = math.MaxInt64 // deadline past the clock's range: lives forever
		}
	}
	return st.putTx(tx, key, entry{val: val}.withDeadline(expireAt))
}

// putTx binds key to the string entry e and logs it — the write under
// Set, Incr and replay. Like Redis SET, it overwrites a container entry
// wholesale. A deadline arms the shard's sweep.
func (st *Store) putTx(tx *stm.Tx, key string, e entry) error {
	if err := st.putEntry(tx, key, e); err != nil {
		return err
	}
	st.capture(tx, wal.Op{Key: key, Val: e.val, ExpireAt: e.deadline()})
	return nil
}

// DelTx removes key inside tx at instant now, reporting whether a live
// entry was removed. Deleting an absent key writes nothing.
func (st *Store) DelTx(tx *stm.Tx, now int64, key string) (bool, error) {
	old, ok, err := st.shard(key).Delete(tx, key)
	if err != nil || !ok || old.dead(now) {
		// Removing an already-dead entry is a physical cleanup replay
		// reproduces by expiry alone: not logged, not counted.
		return false, err
	}
	st.capture(tx, wal.Op{Key: key, Del: true})
	return true, nil
}

// IncrTx adds delta to the integer value at key inside tx at instant
// now, creating the key at delta if absent or expired, and returns the
// new value. An existing key keeps its TTL, Redis-style; a fresh one
// stores without expiry. A non-integer value yields ErrNotInteger.
func (st *Store) IncrTx(tx *stm.Tx, now int64, key string, delta int64) (int64, error) {
	e, ok, err := st.typedEntry(tx, now, key, kindString)
	if err != nil {
		return 0, err
	}
	n := int64(0)
	if ok {
		n, err = strconv.ParseInt(e.val, 10, 64)
		if err != nil {
			return 0, ErrNotInteger
		}
	}
	n += delta
	// e is the zero entry when the key was absent; a live one's meta
	// (its deadline) is shared, not copied.
	e.val = strconv.FormatInt(n, 10)
	if err := st.putTx(tx, key, e); err != nil {
		return 0, err
	}
	return n, nil
}

// ExpireTx arms expiry at now+ttl on a live key of any kind,
// reporting whether the key existed. A ttl <= 0 deletes the key
// immediately (Redis EXPIRE with a non-positive TTL).
func (st *Store) ExpireTx(tx *stm.Tx, now int64, key string, ttl time.Duration) (bool, error) {
	if ttl <= 0 {
		return st.DelTx(tx, now, key)
	}
	expireAt := now + int64(ttl)
	if expireAt < now {
		expireAt = math.MaxInt64 // deadline past the clock's range: lives forever
	}
	ok, err := st.touchTx(tx, now, key, expireAt)
	if err != nil || !ok {
		return false, err
	}
	st.capture(tx, wal.Op{Key: key, Touch: true, ExpireAt: expireAt})
	return true, nil
}

// touchTx replaces the expiry deadline of key's live entry — the
// kind-agnostic body of Expire and the replay form of a touch op. It
// reports whether a live entry was found (an absent key writes
// nothing); it does not capture (ExpireTx does).
func (st *Store) touchTx(tx *stm.Tx, now int64, key string, expireAt int64) (bool, error) {
	e, ok, err := st.findEntry(tx, now, key)
	if err != nil || !ok {
		return false, err
	}
	return true, st.putEntry(tx, key, e.withDeadline(expireAt))
}

// putEntry binds key to e — the one write of an entry that may carry a
// deadline (putTx and touchTx). A deadline first sets the shard's
// expiring flag: one read once it is set, so the TTL writers of an
// armed shard do not conflict over it.
func (st *Store) putEntry(tx *stm.Tx, key string, e entry) error {
	i := st.shardIndex(key)
	if e.deadline() != 0 {
		if _, err := stm.CompareAndSwap(tx, st.expiring[i], false, true); err != nil {
			return err
		}
	}
	_, _, err := st.shards[i].Put(tx, key, e)
	return err
}

// TTLTx reports key's remaining time to live at instant now: ok is
// false when the key is absent or expired; a live key without expiry
// reports NoTTL.
func (st *Store) TTLTx(tx *stm.Tx, now int64, key string) (time.Duration, bool, error) {
	e, ok, err := st.findEntry(tx, now, key)
	if err != nil || !ok {
		return 0, false, err
	}
	at := e.deadline()
	if at == 0 {
		return NoTTL, true, nil
	}
	return time.Duration(at - now), true, nil
}

// Get reads key's value in one atomic transaction. Kept only because
// bench/ calls it (ROADMAP 1(e)).
func (st *Store) Get(key string) (string, bool, error) {
	// Reads log nothing, so Get skips Atomically's write capture.
	now := st.now()
	return stm.Atomic2(st.s, func(tx *stm.Tx) (string, bool, error) { return st.GetTx(tx, now, key) })
}

// Set writes key=val (no expiry) in one atomic transaction. Kept only
// because bench/ calls it (ROADMAP 1(e)).
func (st *Store) Set(key, val string) error { return st.SetTTL(key, val, 0) }

// SetTTL writes key=val with expiry after ttl (ttl <= 0: none) in one
// atomic transaction. Kept only because bench/ calls it (ROADMAP 1(e)).
func (st *Store) SetTTL(key, val string, ttl time.Duration) error {
	return st.Atomically(func(tx *stm.Tx, now int64) error {
		return st.SetTx(tx, now, key, val, ttl)
	})
}

// Del removes the keys in one atomic transaction and returns how many
// live entries were removed. Kept only because bench/ calls it
// (ROADMAP 1(e)).
func (st *Store) Del(keys ...string) (removed int, err error) {
	err = st.Atomically(func(tx *stm.Tx, now int64) error {
		n := 0
		for _, key := range keys {
			ok, err := st.DelTx(tx, now, key)
			if err != nil {
				return err
			}
			if ok {
				n++
			}
		}
		removed = n
		return nil
	})
	return removed, err
}

// Incr adds delta to the integer at key in one atomic transaction and
// returns the new value (see IncrTx). Kept only because bench/ calls
// it (ROADMAP 1(e)).
func (st *Store) Incr(key string, delta int64) (n int64, err error) {
	err = st.Atomically(func(tx *stm.Tx, now int64) (err error) {
		n, err = st.IncrTx(tx, now, key, delta)
		return err
	})
	return n, err
}

// MGet reads every key in one atomic transaction — a consistent
// multi-key snapshot: vals[i], present[i] reflect keys[i] at a single
// serialization point. Keys holding container values read as absent
// (Redis MGET never errors on type). Kept only because bench/ calls it
// (ROADMAP 1(e)).
func (st *Store) MGet(keys ...string) (vals []string, present []bool, err error) {
	now := st.now()
	err = st.s.Atomically(func(tx *stm.Tx) error {
		vals = make([]string, len(keys))
		present = make([]bool, len(keys))
		for i, key := range keys {
			v, ok, err := st.GetTx(tx, now, key)
			if errors.Is(err, ErrWrongType) {
				continue
			}
			if err != nil {
				return err
			}
			vals[i], present[i] = v, ok
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return vals, present, nil
}

// MSet writes every pair in one atomic transaction: concurrent readers
// see all of the writes or none. Kept only because bench/ calls it
// (ROADMAP 1(e)).
func (st *Store) MSet(pairs ...KV) error {
	return st.Atomically(func(tx *stm.Tx, now int64) error {
		for _, p := range pairs {
			if err := st.SetTx(tx, now, p.K, p.V, 0); err != nil {
				return err
			}
		}
		return nil
	})
}

// eachLive calls fn for every entry live at now — the whole-store
// consistent scan: every bucket of every shard joins tx's read set, so
// it conflicts with all concurrent writers. A non-nil error from fn
// stops the scan and is returned.
func (st *Store) eachLive(tx *stm.Tx, now int64, fn func(key string, e entry) error) error {
	for _, sh := range st.shards {
		err := sh.Each(tx, func(key string, e entry) error {
			if e.dead(now) {
				return nil
			}
			return fn(key, e)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// lenTx counts the live keys inside tx — the body of DBSIZE.
func (st *Store) lenTx(tx *stm.Tx, now int64) (int, error) {
	total := 0
	err := st.eachLive(tx, now, func(string, entry) error { total++; return nil })
	return total, err
}
