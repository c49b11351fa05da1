package kv

import (
	"hash/maphash"
	"sort"
	"strconv"

	"repro/internal/container"
	"repro/internal/stm"
	"repro/internal/wal"
)

// fieldMapBuckets is the initial size of a per-key field map — the
// name→value table behind a hash and behind a zset's member index.
// Small: most hashes hold a handful of fields, and the map grows
// itself.
const fieldMapBuckets = 4

// newFieldMap returns an empty field map whose variables carry name
// for the flight recorder, so conflict attribution names the owning
// key ("hash(user:1)") instead of an anonymous stripe.
func newFieldMap(name string) *container.Map[string, string] {
	return container.NewMap[string, string](name, fieldMapBuckets, maphash.String)
}

// fieldAll collects every binding in m, in no particular order.
func fieldAll(tx *stm.Tx, m *container.Map[string, string]) ([]KV, error) {
	var out []KV
	err := m.Each(tx, func(name, val string) error { out = append(out, KV{K: name, V: val}); return nil })
	return out, err
}

// sortedFields returns m's bindings sorted by field name — the
// deterministic order SnapshotOps emits, so two stores holding the
// same hash snapshot identically whatever their seeds.
func sortedFields(tx *stm.Tx, m *container.Map[string, string]) ([]KV, error) {
	pairs, err := fieldAll(tx, m)
	if err != nil {
		return nil, err
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].K < pairs[j].K })
	return pairs, nil
}

// HSetTx writes field name=val in the hash at key, creating the hash
// if the key is absent, and reports whether the field was created.
func (st *Store) HSetTx(tx *stm.Tx, now int64, key, name, val string) (bool, error) {
	e, err := st.containerEntry(tx, now, key, kindHash)
	if err != nil {
		return false, err
	}
	_, existed, err := e.hash().Put(tx, name, val)
	if err != nil {
		return false, err
	}
	st.capture(tx, wal.Op{Kind: wal.KindHash, Key: key, Field: name, Val: val})
	return !existed, nil
}

// HGetTx reads field name of the hash at key.
func (st *Store) HGetTx(tx *stm.Tx, now int64, key, name string) (string, bool, error) {
	e, ok, err := st.typedEntry(tx, now, key, kindHash)
	if err != nil || !ok {
		return "", false, err
	}
	return e.hash().Get(tx, name)
}

// HDelTx removes the named fields from the hash at key, returning how
// many were present. Removing the last field deletes the key.
func (st *Store) HDelTx(tx *stm.Tx, now int64, key string, names ...string) (int, error) {
	e, ok, err := st.typedEntry(tx, now, key, kindHash)
	if err != nil || !ok {
		return 0, err
	}
	removed := 0
	for _, name := range names {
		_, ok, err := e.hash().Delete(tx, name)
		if err != nil {
			return 0, err
		}
		if !ok {
			continue
		}
		removed++
		st.capture(tx, wal.Op{Kind: wal.KindHash, Key: key, Field: name, Del: true})
	}
	if removed > 0 {
		n, err := e.hash().Len(tx)
		if err != nil {
			return 0, err
		}
		if n == 0 {
			if err := st.removeKeyTx(tx, key); err != nil {
				return 0, err
			}
		}
	}
	return removed, nil
}

// HGetAllTx reads every field of the hash at key, in no particular
// order (Redis hashes are unordered).
func (st *Store) HGetAllTx(tx *stm.Tx, now int64, key string) ([]KV, error) {
	e, ok, err := st.typedEntry(tx, now, key, kindHash)
	if err != nil || !ok {
		return nil, err
	}
	return fieldAll(tx, e.hash())
}

// HLenTx counts the fields of the hash at key.
func (st *Store) HLenTx(tx *stm.Tx, now int64, key string) (int, error) {
	e, ok, err := st.typedEntry(tx, now, key, kindHash)
	if err != nil || !ok {
		return 0, err
	}
	return e.hash().Len(tx)
}

// HIncrTx adds delta to the integer at field name of the hash at key,
// creating hash and field as needed, and returns the new value. A
// non-integer field yields ErrNotInteger.
func (st *Store) HIncrTx(tx *stm.Tx, now int64, key, name string, delta int64) (int64, error) {
	e, err := st.containerEntry(tx, now, key, kindHash)
	if err != nil {
		return 0, err
	}
	cur, ok, err := e.hash().Get(tx, name)
	if err != nil {
		return 0, err
	}
	n := int64(0)
	if ok {
		n, err = strconv.ParseInt(cur, 10, 64)
		if err != nil {
			return 0, ErrNotInteger
		}
	}
	n += delta
	val := strconv.FormatInt(n, 10)
	if _, _, err := e.hash().Put(tx, name, val); err != nil {
		return 0, err
	}
	st.capture(tx, wal.Op{Kind: wal.KindHash, Key: key, Field: name, Val: val})
	return n, nil
}
