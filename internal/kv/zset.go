package kv

import (
	"encoding/binary"
	"errors"
	"math"
	"strconv"

	"repro/internal/container"
	"repro/internal/stm"
	"repro/internal/wal"
)

// zset is a sorted set: a score-ordered skip list plus a member→score
// hash index. byScore keys are zkey(score, member) — an
// order-preserving, invertible encoding — so the skip list alone
// yields rank ranges in (score, member) order, ties broken by member
// as in Redis. The index makes ZSCORE a point read and lets ZADD find
// the old score to relocate without walking the list; both halves are
// updated in the same transaction, so the bijection between them is
// an invariant every consistent reader can check.
type zset struct {
	byScore *container.OMap[string, string] // zkey(score, member) → member
	index   *container.Map[string, string]  // member → canonical score string
}

// newZSet returns an empty sorted set with a flight-recorder label on
// both halves' variables; the skip list and the member index share the
// key's one label, since "which zset convoys" is the question the
// recorder answers.
func newZSet(name string) *zset {
	return &zset{
		byScore: container.NewNamedOMap[string, string](name),
		index:   newFieldMap(name),
	}
}

// zkey encodes (score, member) as bytes whose lexicographic order is
// (score, member) order: the float's sign-magnitude bits are mapped
// to a monotone unsigned integer (negatives bit-flipped, positives
// sign-bit-set), big-endian, with the member appended.
func zkey(score float64, member string) string {
	bits := math.Float64bits(score)
	if bits>>63 != 0 {
		bits = ^bits
	} else {
		bits |= 1 << 63
	}
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], bits)
	return string(buf[:]) + member
}

// zkeyDecode inverts zkey.
func zkeyDecode(k string) (float64, string) {
	bits := binary.BigEndian.Uint64([]byte(k[:8]))
	if bits>>63 != 0 {
		bits &^= 1 << 63
	} else {
		bits = ^bits
	}
	return math.Float64frombits(bits), k[8:]
}

// formatScore is the canonical score string: shortest round-tripping
// decimal. It is what the index, the WAL and the wire all carry.
func formatScore(s float64) string { return strconv.FormatFloat(s, 'g', -1, 64) }

// normScore rejects NaN (no total order) and collapses -0 to +0 so
// equal scores encode equally.
func normScore(s float64) (float64, error) {
	if math.IsNaN(s) {
		return 0, ErrNotFloat
	}
	if s == 0 {
		return 0, nil
	}
	return s, nil
}

// ZEntry is one (member, score) pair, the unit of ZRangeTx.
type ZEntry struct {
	Member string
	Score  float64
}

// ZAddTx adds member with score to the sorted set at key, creating
// the set if the key is absent, relocating the member if it already
// has a different score, and reports whether the member was newly
// added. A NaN score yields ErrNotFloat; re-adding with an unchanged
// score is a read-only no-op.
func (st *Store) ZAddTx(tx *stm.Tx, now int64, key, member string, score float64) (bool, error) {
	score, err := normScore(score)
	if err != nil {
		return false, err
	}
	e, err := st.containerEntry(tx, now, key, kindZSet)
	if err != nil {
		return false, err
	}
	scoreStr := formatScore(score)
	old, ok, err := e.zset().index.Get(tx, member)
	if err != nil {
		return false, err
	}
	if ok {
		if old == scoreStr {
			return false, nil
		}
		oldScore, err := strconv.ParseFloat(old, 64)
		if err != nil {
			return false, err // index corrupt: scores are written canonical
		}
		if _, _, err := e.zset().byScore.Delete(tx, zkey(oldScore, member)); err != nil {
			return false, err
		}
	}
	if _, _, err := e.zset().byScore.Put(tx, zkey(score, member), member); err != nil {
		return false, err
	}
	if _, _, err := e.zset().index.Put(tx, member, scoreStr); err != nil {
		return false, err
	}
	st.capture(tx, wal.Op{Kind: wal.KindZSet, Key: key, Field: member, Val: scoreStr})
	return !ok, nil
}

// ZScoreTx reads member's score in the sorted set at key.
func (st *Store) ZScoreTx(tx *stm.Tx, now int64, key, member string) (float64, bool, error) {
	e, ok, err := st.typedEntry(tx, now, key, kindZSet)
	if err != nil || !ok {
		return 0, false, err
	}
	s, ok, err := e.zset().index.Get(tx, member)
	if err != nil || !ok {
		return 0, false, err
	}
	score, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, false, err
	}
	return score, true, nil
}

// ZRemTx removes members from the sorted set at key, returning how
// many were present. Removing the last member deletes the key.
func (st *Store) ZRemTx(tx *stm.Tx, now int64, key string, members ...string) (int, error) {
	e, ok, err := st.typedEntry(tx, now, key, kindZSet)
	if err != nil || !ok {
		return 0, err
	}
	removed := 0
	for _, member := range members {
		old, ok, err := e.zset().index.Get(tx, member)
		if err != nil {
			return 0, err
		}
		if !ok {
			continue
		}
		oldScore, err := strconv.ParseFloat(old, 64)
		if err != nil {
			return 0, err
		}
		if _, _, err := e.zset().index.Delete(tx, member); err != nil {
			return 0, err
		}
		if _, _, err := e.zset().byScore.Delete(tx, zkey(oldScore, member)); err != nil {
			return 0, err
		}
		removed++
		st.capture(tx, wal.Op{Kind: wal.KindZSet, Key: key, Field: member, Del: true})
	}
	if removed > 0 {
		// Emptiness is the skip list's to answer — one read past its head
		// — not the member index's, which would have to count every
		// bucket.
		empty, err := e.zset().byScore.Empty(tx)
		if err != nil {
			return 0, err
		}
		if empty {
			if err := st.removeKeyTx(tx, key); err != nil {
				return 0, err
			}
		}
	}
	return removed, nil
}

// ZCardTx counts the members of the sorted set at key via the member
// index — a bucket scan, not a skip-list walk.
func (st *Store) ZCardTx(tx *stm.Tx, now int64, key string) (int, error) {
	e, ok, err := st.typedEntry(tx, now, key, kindZSet)
	if err != nil || !ok {
		return 0, err
	}
	return e.zset().index.Len(tx)
}

// ZRangeTx returns the members of the sorted set at key between ranks
// start and stop inclusive, in ascending (score, member) order;
// negative ranks count from the end, Redis-style.
func (st *Store) ZRangeTx(tx *stm.Tx, now int64, key string, start, stop int) ([]ZEntry, error) {
	e, ok, err := st.typedEntry(tx, now, key, kindZSet)
	if err != nil || !ok {
		return nil, err
	}
	keys, err := e.zset().byScore.Keys(tx)
	if err != nil {
		return nil, err
	}
	lo, hi, ok := rangeBounds(start, stop, len(keys))
	if !ok {
		return nil, nil
	}
	out := make([]ZEntry, 0, hi-lo+1)
	for _, k := range keys[lo : hi+1] {
		score, member := zkeyDecode(k)
		out = append(out, ZEntry{Member: member, Score: score})
	}
	return out, nil
}

// checkInvariants verifies the two halves of the zset agree: every
// index binding's (score, member) key is in the skip list with the
// member as its value, the counts match (so the skip list holds
// nothing unindexed), the set is non-empty, and the skip list's own
// tower structure holds.
func (z *zset) checkInvariants(tx *stm.Tx) error {
	if err := z.byScore.CheckInvariants(tx); err != nil {
		return err
	}
	if err := z.index.CheckInvariants(tx); err != nil {
		return err
	}
	pairs, err := fieldAll(tx, z.index)
	if err != nil {
		return err
	}
	if len(pairs) == 0 {
		return errors.New("empty zset not auto-deleted")
	}
	for _, p := range pairs {
		score, err := strconv.ParseFloat(p.V, 64)
		if err != nil {
			return errors.New("zset index score not canonical")
		}
		member, ok, err := z.byScore.Get(tx, zkey(score, p.K))
		if err != nil {
			return err
		}
		if !ok || member != p.K {
			return errors.New("zset member missing from score order")
		}
	}
	m, err := z.byScore.Len(tx)
	if err != nil {
		return err
	}
	if m != len(pairs) {
		return errors.New("zset index and score order disagree on size")
	}
	return nil
}
