package intset

import (
	"repro/internal/container"
	"repro/internal/stm"
)

// SkipList is the paper's skiplist application, after the benchmark in
// the DSTM paper: the repository's one transactional skip list,
// container.OMap, keyed by int with nothing stored under the keys.
// Towers shorten the read chains relative to the list, so conflicts
// concentrate near tall towers instead of the head.
//
// The map is embedded, so Keys (Set's fourth method) and the structural
// audit CheckInvariants are the map's own.
type SkipList struct {
	*container.OMap[int, struct{}]
}

// NewSkipList returns an empty skiplist.
func NewSkipList() *SkipList {
	return &SkipList{container.NewOMap[int, struct{}]()}
}

// Insert implements Set. A key already present is left alone: Put alone
// would rewrite its tower's (empty) value, turning the paper's read-only
// duplicate insert into a writer that invalidates every traversal
// through that tower. The second descent Put makes for a new key runs
// over the read set the first one recorded.
func (s *SkipList) Insert(tx *stm.Tx, key int) (bool, error) {
	if _, ok, err := s.Get(tx, key); ok || err != nil {
		return false, err
	}
	_, _, err := s.Put(tx, key, struct{}{})
	return err == nil, err
}

// Remove implements Set.
func (s *SkipList) Remove(tx *stm.Tx, key int) (bool, error) {
	_, had, err := s.Delete(tx, key)
	return had, err
}

// Contains implements Set.
func (s *SkipList) Contains(tx *stm.Tx, key int) (bool, error) {
	_, ok, err := s.Get(tx, key)
	return ok, err
}
