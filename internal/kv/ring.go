package kv

import "sync"

// ring is the fixed-size log under SLOWLOG and ABORTLOG: the most
// recent len(buf) entries, each stamped with an id that keeps counting
// past wraparound. Each log decides what to record; the ring only
// stores. Mutex-guarded, because both logs record only commands or
// transactions that already cost far more than the lock.
type ring[E any] struct {
	mu    sync.Mutex
	buf   []logged[E]
	total int64 // entries ever recorded; also the next id
}

// logged is one ring slot: an entry and the id it was recorded under.
type logged[E any] struct {
	id int64
	e  E
}

// newRing returns a ring keeping the size most recent entries
// (minimum 1).
func newRing[E any](size int) *ring[E] {
	return &ring[E]{buf: make([]logged[E], max(size, 1))}
}

// add records e under the next id.
func (r *ring[E]) add(e E) {
	r.mu.Lock()
	r.buf[r.total%int64(len(r.buf))] = logged[E]{r.total, e}
	r.total++
	r.mu.Unlock()
}

// get returns up to n entries, newest first (n < 0 means all held).
func (r *ring[E]) get(n int) []logged[E] {
	r.mu.Lock()
	defer r.mu.Unlock()
	held := min(r.total, int64(len(r.buf)))
	if n >= 0 && int64(n) < held {
		held = int64(n)
	}
	out := make([]logged[E], 0, held)
	for i := int64(0); i < held; i++ {
		out = append(out, r.buf[(r.total-1-i)%int64(len(r.buf))])
	}
	return out
}

// len reports how many entries the ring holds.
func (r *ring[E]) len() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return min(r.total, int64(len(r.buf)))
}

// reset empties the ring and restarts ids at zero.
func (r *ring[E]) reset() {
	r.mu.Lock()
	r.total = 0
	clear(r.buf)
	r.mu.Unlock()
}
