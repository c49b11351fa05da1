package container

import (
	"cmp"
	"fmt"
	"hash/maphash"

	"repro/internal/stm"
)

// omapMaxLevel bounds tower height; 2^12 comfortably covers the
// benchmark key universes at the 1/2 promotion rate.
const omapMaxLevel = 12

// omKind distinguishes the sentinels from interior nodes: generic
// ordered keys have no MinInt/MaxInt to borrow, so the head and tail
// carry a kind tag instead of extreme keys.
type omKind int8

const (
	omInterior omKind = iota
	omHead
	omTail
)

// omNode is one tower of the ordered map's skip list. next[i] is the
// handle of the successor tower at level i. The link slice is mutable
// state reached through the value, so map variables install a Cloner
// that re-allocates it: a writer's tentative link changes stay private.
// The value is copied at the top level only; values with mutable
// indirect state must be treated as immutable (replace, don't mutate),
// per the stm.Var contract.
type omNode[K cmp.Ordered, V any] struct {
	kind omKind
	key  K
	val  V
	next []*stm.Var[omNode[K, V]]
}

// before reports whether the node sorts strictly before key: the head
// sorts before everything, the tail after everything.
func (n omNode[K, V]) before(key K) bool {
	switch n.kind {
	case omHead:
		return true
	case omTail:
		return false
	default:
		return n.key < key
	}
}

// is reports whether the node holds key.
func (n omNode[K, V]) is(key K) bool { return n.kind == omInterior && n.key == key }

// cloneOMNode is the map's stm.Cloner: a deep copy of the link slice
// (the handles themselves are immutable and shared).
func cloneOMNode[K cmp.Ordered, V any](n omNode[K, V]) omNode[K, V] {
	next := make([]*stm.Var[omNode[K, V]], len(n.next))
	copy(next, n.next)
	n.next = next
	return n
}

// newOMVar wraps a tower in a transactional variable with the deep
// link-slice clone.
func newOMVar[K cmp.Ordered, V any](n omNode[K, V]) *stm.Var[omNode[K, V]] {
	return stm.NewVarCloner(n, cloneOMNode[K, V])
}

// KV is one key-value pair returned by OMap.Range.
type KV[K cmp.Ordered, V any] struct {
	Key K
	Val V
}

// OMap is a transactional ordered map over a skip-list layout. Point
// operations (Get, Put, Delete) read a logarithmic tower path and
// write only the spliced predecessors, so conflicts concentrate near
// tall towers; Range runs as a consistent multi-variable read — a
// scan competing with point writers, validated at one serialization
// point like every transactional read set.
//
// Tower heights are a deterministic pseudo-random function of the key
// (seeded per map) rather than of a mutable RNG: transactional code
// may retry, and a retry must make the same choices.
type OMap[K cmp.Ordered, V any] struct {
	seed maphash.Seed
	head *stm.Var[omNode[K, V]]
	// name, when non-empty, labels every tower variable the map mints
	// (sentinels and inserted towers) for the STM flight recorder, so
	// conflict attribution names the map instead of an anonymous
	// stripe.
	name string
}

// NewOMap returns an empty ordered map.
func NewOMap[K cmp.Ordered, V any]() *OMap[K, V] { return NewNamedOMap[K, V]("") }

// NewNamedOMap is NewOMap with a flight-recorder label on every
// variable the map creates. An empty name is NewOMap.
func NewNamedOMap[K cmp.Ordered, V any](name string) *OMap[K, V] {
	m := &OMap[K, V]{seed: maphash.MakeSeed(), name: name}
	tail := m.newVar(omNode[K, V]{kind: omTail, next: make([]*stm.Var[omNode[K, V]], omapMaxLevel)})
	links := make([]*stm.Var[omNode[K, V]], omapMaxLevel)
	for i := range links {
		links[i] = tail
	}
	m.head = m.newVar(omNode[K, V]{kind: omHead, next: links})
	return m
}

// newVar wraps a tower in a transactional variable, labelled when the
// map is.
func (m *OMap[K, V]) newVar(n omNode[K, V]) *stm.Var[omNode[K, V]] {
	if m.name == "" {
		return newOMVar(n)
	}
	return stm.NewNamedVarCloner(m.name, n, cloneOMNode[K, V])
}

// levelFor returns the deterministic tower height for key, geometric
// with rate 1/2, in [1, omapMaxLevel].
func (m *OMap[K, V]) levelFor(key K) int {
	x := maphash.Comparable(m.seed, key)
	level := 1
	for level < omapMaxLevel && x&1 == 1 {
		level++
		x >>= 1
	}
	return level
}

// findPreds fills preds with the handle of the rightmost tower sorting
// strictly before key at every level, and returns the level-0
// successor's handle and value.
func (m *OMap[K, V]) findPreds(tx *stm.Tx, key K, preds []*stm.Var[omNode[K, V]]) (*stm.Var[omNode[K, V]], omNode[K, V], error) {
	curVar := m.head
	cur, err := stm.Read(tx, curVar)
	if err != nil {
		return nil, omNode[K, V]{}, err
	}
	for level := omapMaxLevel - 1; level >= 0; level-- {
		for {
			nextVar := cur.next[level]
			next, err := stm.Read(tx, nextVar)
			if err != nil {
				return nil, omNode[K, V]{}, err
			}
			if !next.before(key) {
				break
			}
			curVar, cur = nextVar, next
		}
		preds[level] = curVar
	}
	succVar := cur.next[0]
	succ, err := stm.Read(tx, succVar)
	if err != nil {
		return nil, omNode[K, V]{}, err
	}
	return succVar, succ, nil
}

// Get returns the value stored under key and whether it is present.
func (m *OMap[K, V]) Get(tx *stm.Tx, key K) (V, bool, error) {
	var preds [omapMaxLevel]*stm.Var[omNode[K, V]]
	_, succ, err := m.findPreds(tx, key, preds[:])
	if err != nil || !succ.is(key) {
		var zero V
		return zero, false, err
	}
	return succ.val, true, nil
}

// Put stores val under key, returning the previous value and whether
// the key was already present. An existing tower is updated in place
// (one variable written); a new key splices a fresh tower bottom-up.
func (m *OMap[K, V]) Put(tx *stm.Tx, key K, val V) (V, bool, error) {
	var prev V
	var preds [omapMaxLevel]*stm.Var[omNode[K, V]]
	succVar, succ, err := m.findPreds(tx, key, preds[:])
	if err != nil {
		return prev, false, err
	}
	if succ.is(key) {
		prev = succ.val
		err := stm.Update(tx, succVar, func(n omNode[K, V]) omNode[K, V] {
			n.val = val
			return n
		})
		return prev, true, err
	}
	level := m.levelFor(key)
	node := omNode[K, V]{key: key, val: val, next: make([]*stm.Var[omNode[K, V]], level)}
	// Read the predecessors' current links first so the new tower can
	// point at the right successors, then splice bottom-up.
	for i := 0; i < level; i++ {
		pred, err := stm.Read(tx, preds[i])
		if err != nil {
			return prev, false, err
		}
		node.next[i] = pred.next[i]
	}
	nodeVar := m.newVar(node)
	for i := 0; i < level; i++ {
		// The writer's copy carries a deep-cloned link slice, so the
		// in-place splice stays private until commit.
		err := stm.Update(tx, preds[i], func(pred omNode[K, V]) omNode[K, V] {
			pred.next[i] = nodeVar
			return pred
		})
		if err != nil {
			return prev, false, err
		}
	}
	return prev, false, nil
}

// Delete removes key, returning the value it held and whether the map
// changed.
func (m *OMap[K, V]) Delete(tx *stm.Tx, key K) (V, bool, error) {
	var prev V
	var preds [omapMaxLevel]*stm.Var[omNode[K, V]]
	_, succ, err := m.findPreds(tx, key, preds[:])
	if err != nil {
		return prev, false, err
	}
	if !succ.is(key) {
		return prev, false, nil
	}
	for i := 0; i < len(succ.next); i++ {
		err := stm.Update(tx, preds[i], func(pred omNode[K, V]) omNode[K, V] {
			pred.next[i] = succ.next[i]
			return pred
		})
		if err != nil {
			return prev, false, err
		}
	}
	return succ.val, true, nil
}

// Range returns the pairs with from <= key < to in ascending key
// order. The whole scan is one read set, so the returned pairs were
// simultaneously valid at the transaction's serialization point — a
// consistent range read, not a best-effort iteration.
func (m *OMap[K, V]) Range(tx *stm.Tx, from, to K) ([]KV[K, V], error) {
	var preds [omapMaxLevel]*stm.Var[omNode[K, V]]
	_, cur, err := m.findPreds(tx, from, preds[:])
	if err != nil {
		return nil, err
	}
	var out []KV[K, V]
	for cur.kind == omInterior && cur.key < to {
		out = append(out, KV[K, V]{Key: cur.key, Val: cur.val})
		cur, err = stm.Read(tx, cur.next[0])
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Keys returns every key in ascending order.
func (m *OMap[K, V]) Keys(tx *stm.Tx) ([]K, error) {
	var keys []K
	cur, err := stm.Read(tx, m.head)
	if err != nil {
		return nil, err
	}
	for {
		next, err := stm.Read(tx, cur.next[0])
		if err != nil {
			return nil, err
		}
		if next.kind == omTail {
			return keys, nil
		}
		keys = append(keys, next.key)
		cur = next
	}
}

// Empty reports whether the map holds nothing: one read of the head's
// level-0 successor, where Len walks the whole chain.
func (m *OMap[K, V]) Empty(tx *stm.Tx) (bool, error) {
	head, err := stm.Read(tx, m.head)
	if err != nil {
		return false, err
	}
	first, err := stm.Read(tx, head.next[0])
	return first.kind == omTail, err
}

// Len counts the stored pairs — a consistent walk of the level-0
// chain, without materializing the keys.
func (m *OMap[K, V]) Len(tx *stm.Tx) (int, error) {
	cur, err := stm.Read(tx, m.head)
	if err != nil {
		return 0, err
	}
	n := 0
	for {
		next, err := stm.Read(tx, cur.next[0])
		if err != nil {
			return 0, err
		}
		if next.kind == omTail {
			return n, nil
		}
		n++
		cur = next
	}
}

// CheckInvariants verifies the skip-list invariants inside tx: keys
// strictly ascending at every level, and every tower reachable at a
// higher level also present in the level-0 chain. It is the audit hook
// the harness runs after a benchmark point.
func (m *OMap[K, V]) CheckInvariants(tx *stm.Tx) error {
	level0 := make(map[K]bool)
	keys, err := m.Keys(tx)
	if err != nil {
		return err
	}
	for i, k := range keys {
		if i > 0 && keys[i-1] >= k {
			return fmt.Errorf("container: omap level-0 keys not strictly ascending at %d", i)
		}
		level0[k] = true
	}
	for level := 1; level < omapMaxLevel; level++ {
		cur, err := stm.Read(tx, m.head)
		if err != nil {
			return err
		}
		var prevKey K
		first := true
		for {
			next, err := stm.Read(tx, cur.next[level])
			if err != nil {
				return err
			}
			if next.kind == omTail {
				break
			}
			if !level0[next.key] {
				return fmt.Errorf("container: omap key %v at level %d missing from level 0", next.key, level)
			}
			if !first && prevKey >= next.key {
				return fmt.Errorf("container: omap level-%d keys not strictly ascending", level)
			}
			prevKey, first = next.key, false
			cur = next
		}
	}
	return nil
}
