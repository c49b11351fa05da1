package kv

// Typed values. An entry holds one of four value kinds — string,
// hash, list, zset. A string is the entry's val; the other three are a
// container in the entry's meta, whose dynamic type is the kind
// (entry.kind), so a string key carries no container words at all.
// The containers live *inside* the entry: mutating a hash field, list
// end or zset member goes through the container's own stm.Vars and
// never rewrites the key's binding in its shard, so two transactions
// touching different fields of the same key do not conflict on the
// key. Only creation, whole-key deletion and expiry updates write the
// shard.
//
// Semantics follow Redis: a typed command against a key of another
// kind fails with ErrWrongType (SET is the exception — it overwrites
// anything, as Redis does); TTL attaches to the whole key whatever
// its kind; a container emptied by its last HDEL/POP/ZREM deletes the
// key, so empty containers are unrepresentable — replay reproduces
// the auto-delete by running the same code path.

import (
	"errors"

	"repro/internal/container"
	"repro/internal/stm"
)

// ErrWrongType is returned by typed operations against a key holding
// a value of another kind, mirroring Redis WRONGTYPE. Like
// ErrNotInteger it surfaces out of the transaction unchanged, so an
// EXEC block aborts atomically.
var ErrWrongType = errors.New("kv: operation against a key holding the wrong kind of value")

// ErrNotFloat is returned by ZAddTx when a score is NaN (no total
// order) and by the server when a score argument does not parse.
var ErrNotFloat = errors.New("kv: value is not a valid float")

// kind discriminates an entry's value type. The numeric values match
// wal.Kind so captures convert by cast.
type kind uint8

const (
	kindString kind = iota
	kindHash
	kindList
	kindZSet
)

// String returns the Redis TYPE name.
func (k kind) String() string {
	switch k {
	case kindHash:
		return "hash"
	case kindList:
		return "list"
	case kindZSet:
		return "zset"
	default:
		return "string"
	}
}

// kind returns the entry's value kind: the type of its container, a
// string when it has none.
func (e entry) kind() kind {
	switch e.container().(type) {
	case *container.Map[string, string]:
		return kindHash
	case *container.Deque[string]:
		return kindList
	case *zset:
		return kindZSet
	}
	return kindString
}

// hash, list and zset return the entry's container of that kind; nil
// when the entry is of another kind.
func (e entry) hash() *container.Map[string, string] {
	h, _ := e.container().(*container.Map[string, string])
	return h
}

func (e entry) list() *container.Deque[string] {
	l, _ := e.container().(*container.Deque[string])
	return l
}

func (e entry) zset() *zset {
	z, _ := e.container().(*zset)
	return z
}

// container returns the entry's container, nil for a string.
func (e entry) container() any {
	if e.m == nil {
		return nil
	}
	return e.m.c
}

// typedEntry reads key's live entry of kind k; ok is false when the
// key is absent or expired — the lookup under every read-mostly typed
// operation. A live entry of another kind yields ErrWrongType.
func (st *Store) typedEntry(tx *stm.Tx, now int64, key string, k kind) (entry, bool, error) {
	e, ok, err := st.findEntry(tx, now, key)
	if err != nil || !ok {
		return entry{}, false, err
	}
	if e.kind() != k {
		return entry{}, false, ErrWrongType
	}
	return e, true, nil
}

// containerEntry reads key's live entry of kind k, binding the key to
// an empty container when it is absent or expired — the
// find-or-create under every typed mutation (HSET, LPUSH, ZADD). The
// found path only reads the shard, so mutations of an existing
// container never conflict on the key's bucket.
func (st *Store) containerEntry(tx *stm.Tx, now int64, key string, k kind) (entry, error) {
	e, ok, err := st.typedEntry(tx, now, key, k)
	if err != nil || ok {
		return e, err
	}
	// Containers are named after their key so the STM flight recorder
	// attributes conflicts to "list(jobs)" rather than an anonymous
	// commit stripe. The label is a plain string on the container's
	// variables (not an interned transaction label), so per-key
	// cardinality costs only the string.
	var c any
	switch k {
	case kindHash:
		c = newFieldMap("hash(" + key + ")")
	case kindList:
		c = container.NewNamedDeque[string]("list(" + key + ")")
	case kindZSet:
		c = newZSet("zset(" + key + ")")
	}
	e = entry{m: &meta{c: c}}
	_, _, err = st.shard(key).Put(tx, key, e)
	return e, err
}

// removeKeyTx unbinds key without logging a tombstone — the
// auto-delete behind a container's last HDEL/POP/ZREM. The container
// ops already in the capture replay through the same code path and
// reproduce the delete, so a tombstone would be redundant.
func (st *Store) removeKeyTx(tx *stm.Tx, key string) error {
	_, _, err := st.shard(key).Delete(tx, key)
	return err
}

// TypeTx reports key's value kind as its Redis TYPE name; ok is false
// when the key is absent or expired.
func (st *Store) TypeTx(tx *stm.Tx, now int64, key string) (string, bool, error) {
	e, ok, err := st.findEntry(tx, now, key)
	if err != nil || !ok {
		return "", false, err
	}
	return e.kind().String(), true, nil
}

// checkValue verifies the entry's typed payload inside tx — the
// per-kind extension of Store.CheckInvariants. Containers must be
// internally consistent and non-empty (an empty container would mean
// an auto-delete was missed), and a meta must carry something: a
// string without a TTL keeps none.
func (e entry) checkValue(tx *stm.Tx) error {
	if e.m != nil && e.m.expireAt == 0 && e.m.c == nil {
		return errors.New("entry carries an empty meta")
	}
	switch e.kind() {
	case kindHash:
		if err := e.hash().CheckInvariants(tx); err != nil {
			return err
		}
		n, err := e.hash().Len(tx)
		if err != nil {
			return err
		}
		if n == 0 {
			return errors.New("empty hash not auto-deleted")
		}
	case kindList:
		if err := e.list().CheckInvariants(tx); err != nil {
			return err
		}
		n, err := e.list().Len(tx)
		if err != nil {
			return err
		}
		if n == 0 {
			return errors.New("empty list not auto-deleted")
		}
	case kindZSet:
		if err := e.zset().checkInvariants(tx); err != nil {
			return err
		}
	}
	return nil
}
