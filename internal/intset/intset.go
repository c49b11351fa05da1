// Package intset provides the transactional integer-set data
// structures used as benchmark applications in the paper's Figures
// 1–4: a sorted linked list, a skiplist, a red-black tree, and a
// red-black forest (fifty red-black trees updated either one at a time
// or all at once, giving transaction lengths high variance).
//
// All structures are built on the typed API of internal/stm: every
// node lives in its own stm.Var, traversals Read nodes and updates
// Update the modified nodes, so the conflict profile seen by the
// contention manager matches the DSTM/SXM benchmarks the paper
// measured (long read chains for lists, short paths for trees,
// root-adjacent write hot spots under rebalancing). The skiplist is
// container.OMap, the one transactional skip list in the repository;
// the list and tree nodes are plain data plus immutable handles,
// covered by the default shallow copy.
package intset

import "repro/internal/stm"

// Set is the transactional set-of-integers interface shared by the
// benchmark structures. All methods must be called inside a
// transaction and their errors propagated so the STM can retry.
type Set interface {
	// Insert adds key and reports whether the set changed.
	Insert(tx *stm.Tx, key int) (bool, error)
	// Remove deletes key and reports whether the set changed.
	Remove(tx *stm.Tx, key int) (bool, error)
	// Contains reports whether key is present.
	Contains(tx *stm.Tx, key int) (bool, error)
	// Keys returns the keys in ascending order.
	Keys(tx *stm.Tx) ([]int, error)
}
