package kv

import (
	"errors"
	"hash/maphash"
	"sort"
	"strconv"

	"repro/internal/container"
	"repro/internal/stm"
	"repro/internal/wal"
)

// field is one name→value binding in an immutable bucket chain — the
// element of the per-key tables behind hashes and zset member
// indexes. Same construction discipline as entry: writers rebuild the
// changed chain, nothing mutable is shared.
type field struct {
	name string
	val  string
	next *field
}

// fieldTableBuckets is a per-key table's initial size. Small: most
// hashes hold a handful of fields; over-long chains grow the table
// from inside the mutating transaction (Table.GrowTx), so no advisory
// signal or out-of-band groomer is needed at this level.
const fieldTableBuckets = 4

func newFieldTable() *container.Table[*field] {
	return newNamedFieldTable("")
}

// newNamedFieldTable is newFieldTable with a flight-recorder label on
// the table's variables, so conflict attribution names the owning key
// ("hash(user:1)") instead of an anonymous stripe.
func newNamedFieldTable(name string) *container.Table[*field] {
	return container.NewNamedTable[*field](name, fieldTableBuckets)
}

// fieldBucket resolves a field name's bucket variable under the array
// version b.
func fieldBucket(t *container.Table[*field], b container.Buckets[*field], name string) *stm.Var[*field] {
	return b.At(int(maphash.String(t.Seed(), name) % uint64(b.Len())))
}

// fieldGet reads name's value in t.
func fieldGet(tx *stm.Tx, t *container.Table[*field], name string) (string, bool, error) {
	b, err := t.Buckets(tx)
	if err != nil {
		return "", false, err
	}
	head, err := stm.Read(tx, fieldBucket(t, b, name))
	if err != nil {
		return "", false, err
	}
	for f := head; f != nil; f = f.next {
		if f.name == name {
			return f.val, true, nil
		}
	}
	return "", false, nil
}

// fieldSet writes name=val in t, reporting whether the field was
// created (vs overwritten). A chain left over-long by a create grows
// the table inside the same transaction.
func fieldSet(tx *stm.Tx, t *container.Table[*field], name, val string) (bool, error) {
	b, err := t.Buckets(tx)
	if err != nil {
		return false, err
	}
	bv := fieldBucket(t, b, name)
	head, err := stm.Read(tx, bv)
	if err != nil {
		return false, err
	}
	rebuilt := &field{name: name, val: val}
	created := true
	chain := 1
	for f := head; f != nil; f = f.next {
		if f.name == name {
			created = false
			continue
		}
		rebuilt = &field{name: f.name, val: f.val, next: rebuilt}
		chain++
	}
	if err := stm.Write(tx, bv, rebuilt); err != nil {
		return false, err
	}
	if created && chain > container.GrowChain {
		if _, err := t.GrowTx(tx, countFields, rehashFields(t)); err != nil {
			return false, err
		}
	}
	return created, nil
}

// fieldDel removes name from t, reporting whether it was present.
func fieldDel(tx *stm.Tx, t *container.Table[*field], name string) (bool, error) {
	b, err := t.Buckets(tx)
	if err != nil {
		return false, err
	}
	bv := fieldBucket(t, b, name)
	head, err := stm.Read(tx, bv)
	if err != nil {
		return false, err
	}
	found := false
	var rebuilt *field
	for f := head; f != nil; f = f.next {
		if f.name == name {
			found = true
			continue
		}
		rebuilt = &field{name: f.name, val: f.val, next: rebuilt}
	}
	if !found {
		return false, nil // absent: stay read-only on the bucket
	}
	return true, stm.Write(tx, bv, rebuilt)
}

// fieldAll collects every binding in t, in no particular order.
func fieldAll(tx *stm.Tx, t *container.Table[*field]) ([]KV, error) {
	b, err := t.Buckets(tx)
	if err != nil {
		return nil, err
	}
	var out []KV
	for i := 0; i < b.Len(); i++ {
		head, err := stm.Read(tx, b.At(i))
		if err != nil {
			return nil, err
		}
		for f := head; f != nil; f = f.next {
			out = append(out, KV{K: f.name, V: f.val})
		}
	}
	return out, nil
}

// countFields tallies t's bindings — the count callback for grows and
// the scan under HLen/ZCard (per-key tables are small; a consistent
// scan beats a contended size counter).
func countFields(tx *stm.Tx, b container.Buckets[*field]) (int, error) {
	total := 0
	for i := 0; i < b.Len(); i++ {
		head, err := stm.Read(tx, b.At(i))
		if err != nil {
			return 0, err
		}
		for f := head; f != nil; f = f.next {
			total++
		}
	}
	return total, nil
}

// rehashFields builds the resize callback for a per-key table,
// mirroring the store's rehashFor at the field level.
func rehashFields(t *container.Table[*field]) func(tx *stm.Tx, old, neu container.Buckets[*field]) error {
	return func(tx *stm.Tx, old, neu container.Buckets[*field]) error {
		heads := make([]*field, neu.Len())
		for i := 0; i < old.Len(); i++ {
			head, err := stm.Read(tx, old.At(i))
			if err != nil {
				return err
			}
			for f := head; f != nil; f = f.next {
				j := int(maphash.String(t.Seed(), f.name) % uint64(neu.Len()))
				heads[j] = &field{name: f.name, val: f.val, next: heads[j]}
			}
		}
		for j, head := range heads {
			if head == nil {
				continue
			}
			if err := stm.Write(tx, neu.At(j), head); err != nil {
				return err
			}
		}
		return nil
	}
}

// checkFieldTable verifies placement and uniqueness of every binding
// in t, returning the count — the invariant walk shared by hash and
// zset-index audits.
func checkFieldTable(tx *stm.Tx, t *container.Table[*field]) (int, error) {
	b, err := t.Buckets(tx)
	if err != nil {
		return 0, err
	}
	seen := make(map[string]bool)
	for i := 0; i < b.Len(); i++ {
		head, err := stm.Read(tx, b.At(i))
		if err != nil {
			return 0, err
		}
		for f := head; f != nil; f = f.next {
			if fieldBucket(t, b, f.name) != b.At(i) {
				return 0, errors.New("field in wrong bucket")
			}
			if seen[f.name] {
				return 0, errors.New("field duplicated")
			}
			seen[f.name] = true
		}
	}
	return len(seen), nil
}

// sortedFields returns t's bindings sorted by field name — the
// deterministic order SnapshotOps emits, so two stores holding the
// same hash snapshot identically whatever their table seeds.
func sortedFields(tx *stm.Tx, t *container.Table[*field]) ([]KV, error) {
	pairs, err := fieldAll(tx, t)
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
	created, err := fieldSet(tx, e.hash, name, val)
	if err != nil {
		return false, err
	}
	capture(tx, wal.Op{Kind: wal.KindHash, Key: key, Field: name, Val: val})
	return created, nil
}

// HGetTx reads field name of the hash at key.
func (st *Store) HGetTx(tx *stm.Tx, now int64, key, name string) (string, bool, error) {
	e, err := st.typedEntry(tx, now, key, kindHash)
	if err != nil || e == nil {
		return "", false, err
	}
	return fieldGet(tx, e.hash, name)
}

// HDelTx removes the named fields from the hash at key, returning how
// many were present. Removing the last field deletes the key.
func (st *Store) HDelTx(tx *stm.Tx, now int64, key string, names ...string) (int, error) {
	e, err := st.typedEntry(tx, now, key, kindHash)
	if err != nil || e == nil {
		return 0, err
	}
	removed := 0
	for _, name := range names {
		ok, err := fieldDel(tx, e.hash, name)
		if err != nil {
			return 0, err
		}
		if !ok {
			continue
		}
		removed++
		capture(tx, wal.Op{Kind: wal.KindHash, Key: key, Field: name, Del: true})
	}
	if removed > 0 {
		b, err := e.hash.Buckets(tx)
		if err != nil {
			return 0, err
		}
		n, err := countFields(tx, b)
		if err != nil {
			return 0, err
		}
		if n == 0 {
			if err := st.removeKeyTx(tx, now, key); err != nil {
				return 0, err
			}
		}
	}
	return removed, nil
}

// HGetAllTx reads every field of the hash at key, in no particular
// order (Redis hashes are unordered).
func (st *Store) HGetAllTx(tx *stm.Tx, now int64, key string) ([]KV, error) {
	e, err := st.typedEntry(tx, now, key, kindHash)
	if err != nil || e == nil {
		return nil, err
	}
	return fieldAll(tx, e.hash)
}

// HLenTx counts the fields of the hash at key.
func (st *Store) HLenTx(tx *stm.Tx, now int64, key string) (int, error) {
	e, err := st.typedEntry(tx, now, key, kindHash)
	if err != nil || e == nil {
		return 0, err
	}
	b, err := e.hash.Buckets(tx)
	if err != nil {
		return 0, err
	}
	return countFields(tx, b)
}

// HIncrTx adds delta to the integer at field name of the hash at key,
// creating hash and field as needed, and returns the new value. A
// non-integer field yields ErrNotInteger.
func (st *Store) HIncrTx(tx *stm.Tx, now int64, key, name string, delta int64) (int64, error) {
	e, err := st.containerEntry(tx, now, key, kindHash)
	if err != nil {
		return 0, err
	}
	cur, ok, err := fieldGet(tx, e.hash, name)
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
	if _, err := fieldSet(tx, e.hash, name, val); err != nil {
		return 0, err
	}
	capture(tx, wal.Op{Kind: wal.KindHash, Key: key, Field: name, Val: val})
	return n, nil
}

// HSet writes field name=val in one atomic transaction (see HSetTx).
func (st *Store) HSet(key, name, val string) (bool, error) {
	return update(st, func(tx *stm.Tx, now int64) (bool, error) {
		return st.HSetTx(tx, now, key, name, val)
	})
}

// HGet reads field name in one atomic transaction (see HGetTx).
func (st *Store) HGet(key, name string) (string, bool, error) {
	f, err := view(st, func(tx *stm.Tx, now int64) (found[string], error) {
		return lookup(st.HGetTx(tx, now, key, name))
	})
	return f.v, f.ok, err
}

// HDel removes fields in one atomic transaction (see HDelTx).
func (st *Store) HDel(key string, names ...string) (int, error) {
	return update(st, func(tx *stm.Tx, now int64) (int, error) {
		return st.HDelTx(tx, now, key, names...)
	})
}

// HGetAll reads the whole hash in one atomic transaction.
func (st *Store) HGetAll(key string) ([]KV, error) {
	return view(st, func(tx *stm.Tx, now int64) ([]KV, error) {
		return st.HGetAllTx(tx, now, key)
	})
}

// HLen counts fields in one atomic transaction.
func (st *Store) HLen(key string) (int, error) {
	return view(st, func(tx *stm.Tx, now int64) (int, error) {
		return st.HLenTx(tx, now, key)
	})
}

// HIncr adds delta to a hash field in one atomic transaction (see
// HIncrTx).
func (st *Store) HIncr(key, name string, delta int64) (int64, error) {
	return update(st, func(tx *stm.Tx, now int64) (int64, error) {
		return st.HIncrTx(tx, now, key, name, delta)
	})
}
