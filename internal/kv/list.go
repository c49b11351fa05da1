package kv

import (
	"repro/internal/stm"
	"repro/internal/wal"
)

// Lists are container.Deque[string] values inside entries: a chain of
// runs of up to 32 elements each. Pushes and pops touch only their end
// run, its links and the end counter, so front and back traffic on the
// same key are independent hot spots and neither rewrites the bucket
// chain. The WAL sees one op per element moved (push = value + end
// flag, pop = tombstone + end flag); replay re-runs the same deque
// operations in commit order, so how elements fall into runs is not
// part of the log or the snapshot.

// LPushTx pushes vals onto the front of the list at key, left to
// right (so the last val ends up frontmost, as in Redis), creating
// the list if the key is absent. Returns the new length.
func (st *Store) LPushTx(tx *stm.Tx, now int64, key string, vals ...string) (int, error) {
	return st.pushTx(tx, now, key, true, vals)
}

// RPushTx pushes vals onto the back of the list at key; see LPushTx.
func (st *Store) RPushTx(tx *stm.Tx, now int64, key string, vals ...string) (int, error) {
	return st.pushTx(tx, now, key, false, vals)
}

func (st *Store) pushTx(tx *stm.Tx, now int64, key string, front bool, vals []string) (int, error) {
	e, err := st.containerEntry(tx, now, key, kindList)
	if err != nil {
		return 0, err
	}
	for _, v := range vals {
		if front {
			err = e.list.PushFront(tx, v)
		} else {
			err = e.list.PushBack(tx, v)
		}
		if err != nil {
			return 0, err
		}
		capture(tx, wal.Op{Kind: wal.KindList, Key: key, Val: v, Front: front})
	}
	return e.list.Len(tx)
}

// LPopTx pops the front element of the list at key; ok is false when
// the key is absent. Popping the last element deletes the key.
func (st *Store) LPopTx(tx *stm.Tx, now int64, key string) (string, bool, error) {
	return st.popTx(tx, now, key, true)
}

// RPopTx pops the back element of the list at key; see LPopTx.
func (st *Store) RPopTx(tx *stm.Tx, now int64, key string) (string, bool, error) {
	return st.popTx(tx, now, key, false)
}

func (st *Store) popTx(tx *stm.Tx, now int64, key string, front bool) (string, bool, error) {
	e, ok, err := st.typedEntry(tx, now, key, kindList)
	if err != nil || !ok {
		return "", false, err
	}
	var v string
	if front {
		v, ok, err = e.list.PopFront(tx)
	} else {
		v, ok, err = e.list.PopBack(tx)
	}
	if err != nil || !ok {
		return "", false, err // empty lists are unrepresentable, but stay safe
	}
	capture(tx, wal.Op{Kind: wal.KindList, Key: key, Del: true, Front: front})
	n, err := e.list.Len(tx)
	if err != nil {
		return "", false, err
	}
	if n == 0 {
		if err := st.removeKeyTx(tx, key); err != nil {
			return "", false, err
		}
	}
	return v, true, nil
}

// LLenTx reports the length of the list at key (0 when absent) from
// the deque's end counters — no chain walk.
func (st *Store) LLenTx(tx *stm.Tx, now int64, key string) (int, error) {
	e, ok, err := st.typedEntry(tx, now, key, kindList)
	if err != nil || !ok {
		return 0, err
	}
	return e.list.Len(tx)
}

// LRangeTx returns the elements of the list at key between ranks
// start and stop inclusive, front = rank 0; negative ranks count from
// the back, Redis-style. A non-negative range walks only the prefix
// it needs.
func (st *Store) LRangeTx(tx *stm.Tx, now int64, key string, start, stop int) ([]string, error) {
	e, ok, err := st.typedEntry(tx, now, key, kindList)
	if err != nil || !ok {
		return nil, err
	}
	if start >= 0 && stop >= 0 {
		if stop < start {
			return nil, nil
		}
		items, err := e.list.PeekFrontN(tx, stop+1)
		if err != nil || start >= len(items) {
			return nil, err
		}
		return items[start:], nil
	}
	items, err := e.list.Items(tx)
	if err != nil {
		return nil, err
	}
	lo, hi, ok := rangeBounds(start, stop, len(items))
	if !ok {
		return nil, nil
	}
	return items[lo : hi+1], nil
}

// rangeBounds resolves a Redis-style inclusive rank range against
// length n (negatives count from the end); ok is false when the
// resolved range is empty.
func rangeBounds(start, stop, n int) (int, int, bool) {
	if start < 0 {
		start += n
		if start < 0 {
			start = 0
		}
	}
	if stop < 0 {
		stop += n
	}
	if stop >= n {
		stop = n - 1
	}
	if start >= n || stop < 0 || start > stop {
		return 0, 0, false
	}
	return start, stop, true
}

// RPush pushes vals onto the back in one atomic transaction and
// returns the new length. Kept only because bench/ calls it
// (ROADMAP 1(e)).
func (st *Store) RPush(key string, vals ...string) (n int, err error) {
	err = st.Atomically(func(tx *stm.Tx, now int64) (err error) {
		n, err = st.RPushTx(tx, now, key, vals...)
		return err
	})
	return n, err
}
