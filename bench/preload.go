package main

import (
	"fmt"
	"strconv"

	"repro/internal/kv"
	"repro/internal/stm"
)

// Preloading fills a store with a workload's starting population. The
// same plan is applied over the wire (to the child server) and directly
// (to the in-process stores of the engine workload and the ladder), so
// "preloaded identically" is one function, not two that must agree.

// loader is where a preload plan goes: the wire or a *kv.Store.
type loader interface {
	mset(pairs []kv.KV) error
	rpush(key string, vals []string) error
	zadd(key string, members []string, scores []float64) error
	hset(key string, pairs []kv.KV) error
	// flush waits until everything sent so far has been acknowledged.
	flush() error
}

// preloadBatch is the number of keys or elements per preload command:
// big enough that a durable server pays one fsync per few hundred keys,
// small enough to stay far below resp.MaxArity.
const preloadBatch = 250

// population is what preload put in: how many keys now exist, how many
// items (keys plus the elements of list, sorted-set and hash keys), and
// how many bytes of key + value the user handed over.
type population struct {
	keys, items int
	userBytes   int64
}

// preload applies sp's starting population, derived from seed.
func preload(l loader, sp spec, seed uint64) (population, error) {
	var pop population
	ks := newKeyspace(seed)
	batch := make([]kv.KV, 0, preloadBatch)
	put := func(k, v string) error {
		pop.keys++
		pop.userBytes += int64(len(k) + len(v))
		batch = append(batch, kv.KV{K: k, V: v})
		if len(batch) < preloadBatch {
			return nil
		}
		err := l.mset(batch)
		batch = batch[:0]
		return err
	}
	for i, v := range preloadValues(sp, seed) {
		if err := put(ks.key('s', int32(i)), v); err != nil {
			return pop, err
		}
	}
	for i := 0; i < sp.counters; i++ {
		if err := put(ks.key('c', int32(i)), "0"); err != nil {
			return pop, err
		}
	}
	if sp.name == wlDepth1 || sp.name == wlEngine {
		for i := 0; i < accounts; i++ {
			if err := put(accountKey(i), strconv.Itoa(accountStart)); err != nil {
				return pop, err
			}
		}
	}
	if len(batch) > 0 {
		if err := l.mset(batch); err != nil {
			return pop, err
		}
	}
	if sp.name == wlEngine {
		if err := preloadJobs(l, sp.backlog, newRNG(seed, sp.name+"/scores", 0).Float64); err != nil {
			return pop, err
		}
		pop.keys += 3
		pop.items = sp.backlog + jobsStanding + 4
	}
	pop.items += pop.keys
	return pop, l.flush()
}

// preloadValues are the values of the preloaded string keys, by key
// index: what preload writes and what the journal check expects an
// untouched key to still hold.
func preloadValues(sp spec, seed uint64) []string {
	rng := newRNG(seed, sp.name+"/preload", 0)
	vals := make([]string, sp.strKeys)
	var b []byte
	for i := range vals {
		b = appendValue(b[:0], rng, uint32(i))
		vals[i] = string(b)
	}
	return vals
}

// preloadJobs builds the engine workload's shared pipeline: a pending
// backlog, a standing active population, and stats that already account
// for both (so conservation holds from the first transaction).
func preloadJobs(l loader, backlog int, score func() float64) error {
	for i := 0; i < backlog; i += preloadBatch {
		vals := make([]string, 0, preloadBatch)
		for j := i; j < min(i+preloadBatch, backlog); j++ {
			vals = append(vals, "b:"+strconv.Itoa(j))
		}
		if err := l.rpush(jobsPending, vals); err != nil {
			return err
		}
	}
	for i := 0; i < jobsStanding; i += preloadBatch {
		members := make([]string, 0, preloadBatch)
		scores := make([]float64, 0, preloadBatch)
		for j := i; j < min(i+preloadBatch, jobsStanding); j++ {
			members = append(members, "s:"+strconv.Itoa(j))
			scores = append(scores, score()*100)
		}
		if err := l.zadd(jobsActive, members, scores); err != nil {
			return err
		}
	}
	return l.hset(jobsStats, []kv.KV{
		{K: "submitted:0", V: strconv.Itoa(backlog + jobsStanding)},
		{K: "submitted:1", V: "0"},
		{K: "promoted", V: strconv.Itoa(jobsStanding)},
		{K: "done", V: "0"},
	})
}

// wireLoader sends the plan as RESP commands, keeping a few in flight.
type wireLoader struct {
	lc      *loadConn
	buf     []byte
	pending int
}

// preloadWindow is how many preload commands may be unacknowledged.
const preloadWindow = 8

func (w *wireLoader) sendCmd(name string, key string, n int, each func(i int) (string, string)) error {
	w.buf = w.buf[:0]
	arity := 1 + 2*n
	if key != "" {
		arity++
	}
	w.buf = appendArray(w.buf, arity)
	w.buf = appendBulk(w.buf, name)
	if key != "" {
		w.buf = appendBulk(w.buf, key)
	}
	for i := 0; i < n; i++ {
		a, b := each(i)
		w.buf = appendBulk(w.buf, a)
		w.buf = appendBulk(w.buf, b)
	}
	return w.write()
}

func (w *wireLoader) write() error {
	for w.pending >= preloadWindow {
		if err := w.ack(); err != nil {
			return err
		}
	}
	if _, err := w.lc.c.Write(w.buf); err != nil {
		return fmt.Errorf("preload: %w", err)
	}
	w.pending++
	return nil
}

func (w *wireLoader) ack() error {
	kind, _, err := w.lc.skip()
	if err != nil {
		return fmt.Errorf("preload: %w", err)
	}
	if kind == '-' {
		return fmt.Errorf("preload: server answered a preload command with an error")
	}
	w.pending--
	return nil
}

func (w *wireLoader) mset(pairs []kv.KV) error {
	return w.sendCmd("MSET", "", len(pairs), func(i int) (string, string) { return pairs[i].K, pairs[i].V })
}

func (w *wireLoader) hset(key string, pairs []kv.KV) error {
	return w.sendCmd("HSET", key, len(pairs), func(i int) (string, string) { return pairs[i].K, pairs[i].V })
}

func (w *wireLoader) zadd(key string, members []string, scores []float64) error {
	return w.sendCmd("ZADD", key, len(members), func(i int) (string, string) {
		return strconv.FormatFloat(scores[i], 'g', -1, 64), members[i]
	})
}

func (w *wireLoader) rpush(key string, vals []string) error {
	w.buf = appendCmd(w.buf[:0], append([]string{"RPUSH", key}, vals...)...)
	return w.write()
}

func (w *wireLoader) flush() error {
	for w.pending > 0 {
		if err := w.ack(); err != nil {
			return err
		}
	}
	return nil
}

// storeLoader applies the plan through the store's public API.
type storeLoader struct{ st *kv.Store }

func (s storeLoader) mset(pairs []kv.KV) error { return s.st.MSet(pairs...) }

func (s storeLoader) rpush(key string, vals []string) error {
	_, err := s.st.RPush(key, vals...)
	return err
}

func (s storeLoader) zadd(key string, members []string, scores []float64) error {
	return s.st.Atomically(func(tx *stm.Tx, now int64) error {
		for i, m := range members {
			if _, err := s.st.ZAddTx(tx, now, key, m, scores[i]); err != nil {
				return err
			}
		}
		return nil
	})
}

func (s storeLoader) hset(key string, pairs []kv.KV) error {
	return s.st.Atomically(func(tx *stm.Tx, now int64) error {
		for _, p := range pairs {
			if _, err := s.st.HSetTx(tx, now, key, p.K, p.V); err != nil {
				return err
			}
		}
		return nil
	})
}

func (s storeLoader) flush() error { return nil }
