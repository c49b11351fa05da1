package container

import (
	"fmt"
	"hash/maphash"

	"repro/internal/stm"
)

// GrowChain is the whole grow policy: a write that creates a key and
// leaves its chain longer than this doubles the map's bucket array
// inside the same transaction. 9 was chosen by measurement: a 200 000-
// key preload of the kv store (16 shards) ends at about the bucket
// count the previous load-factor rule reached (see DESIGN.md
// §Containers), and 10 ends a fifth below it.
const GrowChain = 9

// mapNode is one link of a bucket chain. Chains are immutable once
// published: writers build new nodes for the changed prefix and share
// the unchanged suffix, so the bucket Var's default shallow clone (of
// the head pointer) is a correct private copy and a transaction's
// tentative chain never aliases mutable committed state.
type mapNode[K comparable, V any] struct {
	key  K
	val  V
	next *mapNode[K, V]
}

// Map is the transactional hash map: a Table whose buckets each hold
// one immutable chain of bindings. Conflict granularity is the bucket —
// transactions touching different buckets are disjoint and never
// consult the contention manager, while collisions within a bucket
// conflict whole-chain. HashSet, the kv store's shards and its per-key
// field tables are instantiations.
//
// Growth needs no element count and no owner: the writer that makes a
// chain too long (see GrowChain) has the array variable and that chain
// in its read set already, reads the remaining buckets, and installs
// the doubled array in the transaction that inserts the key — so the
// resize commits or aborts with the insert. Overwrites, deletes and
// reads never grow anything, and nothing ever shrinks.
type Map[K comparable, V any] struct {
	table *Table[*mapNode[K, V]]
	hash  func(maphash.Seed, K) uint64
}

// NewMap returns an empty map with the given initial number of buckets
// (minimum 1). hash maps a key to 64 bits under the map's seed:
// maphash.String for string keys, maphash.Comparable otherwise. A
// non-empty name labels the map's variables for the flight recorder.
func NewMap[K comparable, V any](name string, buckets int, hash func(maphash.Seed, K) uint64) *Map[K, V] {
	return &Map[K, V]{table: newTable[*mapNode[K, V]](name, buckets), hash: hash}
}

// Buckets returns the committed bucket count (a non-transactional
// snapshot; it changes only when an insert commits a resize).
func (m *Map[K, V]) Buckets() int { return m.table.peek().Len() }

// index is k's bucket in an array of n. The seed is fixed at
// construction, so the mapping is stable across transaction retries;
// only the modulus changes when the map grows.
func (m *Map[K, V]) index(k K, n int) int {
	return int(m.hash(m.table.seed, k) % uint64(n))
}

// Get returns the value bound to k and whether there is one.
func (m *Map[K, V]) Get(tx *stm.Tx, k K) (V, bool, error) {
	var zero V
	b, err := m.table.Buckets(tx)
	if err != nil {
		return zero, false, err
	}
	head, err := stm.Read(tx, b.At(m.index(k, b.Len())))
	if err != nil {
		return zero, false, err
	}
	for n := head; n != nil; n = n.next {
		if n.key == k {
			return n.val, true, nil
		}
	}
	return zero, false, nil
}

// Put binds k to v, returning the value it replaced and whether there
// was one.
func (m *Map[K, V]) Put(tx *stm.Tx, k K, v V) (V, bool, error) {
	return m.set(tx, k, v, setPut)
}

// Delete removes k, returning the value it held and whether there was
// one. Deleting an absent key writes nothing, so it never conflicts
// with the bucket's writers.
func (m *Map[K, V]) Delete(tx *stm.Tx, k K) (V, bool, error) {
	var zero V
	return m.set(tx, k, zero, setDelete)
}

// setMode is what set does to its key.
type setMode uint8

const (
	setPut    setMode = iota // bind, replacing any present value
	setAdd                   // bind unless present (then write nothing)
	setDelete                // unbind
)

// set is the one write primitive, returning the value k held and
// whether it held one. A new key is linked in front of its chain,
// which is shared whole; a present key's node is replaced (or dropped)
// in place, with the nodes before it copied and the nodes after it
// shared.
func (m *Map[K, V]) set(tx *stm.Tx, k K, v V, mode setMode) (V, bool, error) {
	var zero V
	b, err := m.table.Buckets(tx)
	if err != nil {
		return zero, false, err
	}
	i := m.index(k, b.Len())
	head, err := stm.Read(tx, b.At(i))
	if err != nil {
		return zero, false, err
	}
	chain := 1
	at := head
	for ; at != nil && at.key != k; at = at.next {
		chain++
	}
	if at == nil {
		if mode == setDelete {
			return zero, false, nil
		}
		linked := &mapNode[K, V]{key: k, val: v, next: head}
		if chain > GrowChain {
			return zero, false, m.grow(tx, b, i, linked)
		}
		return zero, false, stm.Write(tx, b.At(i), linked)
	}
	if mode == setAdd {
		return at.val, true, nil
	}
	rest := at.next
	if mode == setPut {
		rest = &mapNode[K, V]{key: k, val: v, next: at.next}
	}
	var rebuilt *mapNode[K, V]
	tail := &rebuilt
	for n := head; n != at; n = n.next {
		c := &mapNode[K, V]{key: n.key, val: n.val}
		*tail = c
		tail = &c.next
	}
	*tail = rest
	return at.val, true, stm.Write(tx, b.At(i), rebuilt)
}

// grow installs an array twice the size of old, rehashing every chain
// into it; bucket at's chain is taken as head (the caller's tentative
// version) rather than read.
func (m *Map[K, V]) grow(tx *stm.Tx, old Buckets[*mapNode[K, V]], at int, head *mapNode[K, V]) error {
	heads := make([]*mapNode[K, V], 2*old.Len())
	for i := 0; i < old.Len(); i++ {
		chain := head
		if i != at {
			var err error
			if chain, err = stm.Read(tx, old.At(i)); err != nil {
				return err
			}
		}
		for n := chain; n != nil; n = n.next {
			j := m.index(n.key, len(heads))
			heads[j] = &mapNode[K, V]{key: n.key, val: n.val, next: heads[j]}
		}
	}
	return m.table.resize(tx, heads)
}

// each calls fn for every binding in the residue class (r, of) of the
// array version b — (0, 1) is all of it — bucket by bucket in chain
// order, fetching each chain head with load.
func (m *Map[K, V]) each(b Buckets[*mapNode[K, V]], r, of int, load func(*stm.Var[*mapNode[K, V]]) (*mapNode[K, V], error), fn func(k K, v V) error) error {
	for i := r; i < b.Len(); i += of {
		head, err := load(b.At(i))
		if err != nil {
			return err
		}
		for n := head; n != nil; n = n.next {
			if err := fn(n.key, n.val); err != nil {
				return err
			}
		}
	}
	return nil
}

// Each calls fn for every binding, in no particular order — a
// consistent multi-variable read over every bucket, so it conflicts
// with all concurrent writers (the long read-only scan the paper's
// bank-auditor scenario stresses). A non-nil error from fn stops the
// scan and is returned.
func (m *Map[K, V]) Each(tx *stm.Tx, fn func(k K, v V) error) error {
	return m.EachIn(tx, 0, 1, fn)
}

// A residue class (r, of) is the buckets whose index is r modulo of —
// the unit a long walk cuts its transactions to. For any of that
// divides the bucket count a key's class is its hash modulo of,
// whatever the array's size (ClassOf); and since the count only ever
// doubles, an of that divides it once divides it for good. A walk that
// visits the classes 0..of-1, one transaction each, therefore visits
// every binding exactly once even if the map grows in between: growth
// moves a key to another bucket of its own class. When growth has made
// a class too wide for one transaction, (r, of) splits into (r, 2·of)
// and (r+of, 2·of).

// EachIn is Each over the residue class (r, of): it reads the array
// variable and the BucketCount/of buckets of the class, nothing else.
// of must divide the bucket count.
func (m *Map[K, V]) EachIn(tx *stm.Tx, r, of int, fn func(k K, v V) error) error {
	b, err := m.table.Buckets(tx)
	if err != nil {
		return err
	}
	if b.Len()%of != 0 {
		return fmt.Errorf("container: map walk in %d classes over %d buckets", of, b.Len())
	}
	return m.each(b, r, of, func(bv *stm.Var[*mapNode[K, V]]) (*mapNode[K, V], error) { return stm.Read(tx, bv) }, fn)
}

// BucketCount is Buckets as a transactional read: the size of the
// array version tx sees.
func (m *Map[K, V]) BucketCount(tx *stm.Tx) (int, error) {
	b, err := m.table.Buckets(tx)
	return b.Len(), err
}

// ClassOf is the residue class, out of of, that holds k.
func (m *Map[K, V]) ClassOf(k K, of int) int {
	return int(m.hash(m.table.seed, k) % uint64(of))
}

// Len counts the bindings, at Each's price.
func (m *Map[K, V]) Len(tx *stm.Tx) (int, error) {
	total := 0
	err := m.Each(tx, func(K, V) error { total++; return nil })
	return total, err
}

// Peek calls fn for every binding without a transaction: each bucket
// is an independent committed snapshot, so under concurrent writes a
// binding may be seen twice or not at all. For observability (key
// counts), not for invariant-carrying reads.
func (m *Map[K, V]) Peek(fn func(k K, v V)) {
	_ = m.each(m.table.peek(), 0, 1,
		func(bv *stm.Var[*mapNode[K, V]]) (*mapNode[K, V], error) { return bv.Peek(), nil },
		func(k K, v V) error { fn(k, v); return nil })
}

// Prune removes every binding doomed reports true for and returns the
// removed keys. doomed must be a pure function of its arguments (it is
// called again on the chains it condemns part of). Buckets that lose
// nothing are only read.
func (m *Map[K, V]) Prune(tx *stm.Tx, doomed func(k K, v V) bool) ([]K, error) {
	b, err := m.table.Buckets(tx)
	if err != nil {
		return nil, err
	}
	var removed []K
	for i := 0; i < b.Len(); i++ {
		head, err := stm.Read(tx, b.At(i))
		if err != nil {
			return nil, err
		}
		n := head
		for n != nil && !doomed(n.key, n.val) {
			n = n.next
		}
		if n == nil {
			continue
		}
		var kept *mapNode[K, V]
		tail := &kept
		for n := head; n != nil; n = n.next {
			if doomed(n.key, n.val) {
				removed = append(removed, n.key)
				continue
			}
			c := &mapNode[K, V]{key: n.key, val: n.val}
			*tail = c
			tail = &c.next
		}
		if err := stm.Write(tx, b.At(i), kept); err != nil {
			return nil, err
		}
	}
	return removed, nil
}

// CheckInvariants verifies the map's structural invariants inside tx:
// every key hashes to the bucket that holds it (under the current
// array version), and no key appears twice. It is the audit hook the
// harness runs after a benchmark point.
func (m *Map[K, V]) CheckInvariants(tx *stm.Tx) error {
	b, err := m.table.Buckets(tx)
	if err != nil {
		return err
	}
	seen := make(map[K]bool)
	for i := 0; i < b.Len(); i++ {
		head, err := stm.Read(tx, b.At(i))
		if err != nil {
			return err
		}
		for n := head; n != nil; n = n.next {
			if m.index(n.key, b.Len()) != i {
				return fmt.Errorf("container: map key %v in bucket %d, hashes elsewhere", n.key, i)
			}
			if seen[n.key] {
				return fmt.Errorf("container: map key %v duplicated", n.key)
			}
			seen[n.key] = true
		}
	}
	return nil
}
