package container

import (
	"hash/maphash"

	"repro/internal/stm"
)

// HashSet is a transactional hash set: a Map from elements to nothing,
// with the Map's conflict granularity (the bucket) and its growth (an
// Add that leaves a chain too long doubles the array in its own
// transaction).
type HashSet[T comparable] struct {
	m *Map[T, struct{}]
}

// NewHashSet returns an empty set with the given initial number of
// buckets (minimum 1). More buckets mean more disjoint parallelism;
// fewer mean hotter chains — until an Add doubles the array.
func NewHashSet[T comparable](buckets int) *HashSet[T] {
	return &HashSet[T]{m: NewMap[T, struct{}]("", buckets, maphash.Comparable[T])}
}

// Buckets returns the committed bucket count (a non-transactional
// snapshot).
func (h *HashSet[T]) Buckets() int { return h.m.Buckets() }

// Contains reports whether x is in the set.
func (h *HashSet[T]) Contains(tx *stm.Tx, x T) (bool, error) {
	_, ok, err := h.m.Get(tx, x)
	return ok, err
}

// Add inserts x and reports whether the set changed. Adding a present
// element writes nothing.
func (h *HashSet[T]) Add(tx *stm.Tx, x T) (bool, error) {
	_, present, err := h.m.set(tx, x, struct{}{}, setAdd)
	return !present, err
}

// Remove deletes x and reports whether the set changed.
func (h *HashSet[T]) Remove(tx *stm.Tx, x T) (bool, error) {
	_, ok, err := h.m.Delete(tx, x)
	return ok, err
}

// Len counts the elements — a consistent multi-variable read over
// every bucket, so it conflicts with all concurrent writers.
func (h *HashSet[T]) Len(tx *stm.Tx) (int, error) { return h.m.Len(tx) }

// Elems returns every element, grouped by bucket in chain order — a
// consistent snapshot of the whole set.
func (h *HashSet[T]) Elems(tx *stm.Tx) ([]T, error) {
	var out []T
	err := h.m.Each(tx, func(x T, _ struct{}) error { out = append(out, x); return nil })
	return out, err
}

// CheckInvariants verifies the underlying map's structural invariants
// inside tx.
func (h *HashSet[T]) CheckInvariants(tx *stm.Tx) error { return h.m.CheckInvariants(tx) }
