package kv

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/stm"
)

// BenchmarkStoreOps measures the store's singleton operations and the
// EXEC-shaped two-key transfer, parallel across pooled sessions — the
// per-operation cost floor under the striped commit protocol (keys are
// pre-spread so contention is the occasional bucket collision, as in
// the disjoint regime of the figures).
func BenchmarkStoreOps(b *testing.B) {
	const keySpace = 1024
	newStore := func() (*Store, []string) {
		s := stm.New(stm.WithManagerFactory(core.MustFactory("greedy")))
		st := New(s, WithShards(16), withBuckets(keySpace/16/2))
		keys := make([]string, keySpace)
		for i := range keys {
			keys[i] = fmt.Sprintf("key:%06d", i)
			if err := st.Set(keys[i], strconv.Itoa(i)); err != nil {
				b.Fatal(err)
			}
		}
		return st, keys
	}
	b.Run("get", func(b *testing.B) {
		st, keys := newStore()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				if _, _, err := st.Get(keys[i%keySpace]); err != nil {
					b.Error(err)
					return
				}
				i++
			}
		})
	})
	b.Run("set", func(b *testing.B) {
		st, keys := newStore()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				if err := st.Set(keys[i%keySpace], "v"); err != nil {
					b.Error(err)
					return
				}
				i++
			}
		})
	})
	// A store too large for the cache, as the wire-pipelined workload
	// has it: each operation's chain of loads (shard, bucket array,
	// bucket cell, node, entry) misses, so this case shows the engine's
	// memory layout where the 1024-key cases above cannot.
	b.Run("large-get80-set20", func(b *testing.B) {
		const n = 200_000
		keys := makeKeys(n)
		st := preloadStore(b, keys)
		var seq atomic.Uint64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			rng := rand.New(rand.NewPCG(1, seq.Add(1)))
			for pb.Next() {
				k := keys[rng.IntN(n)]
				set := rng.IntN(5) == 0
				err := st.Atomically(func(tx *stm.Tx, now int64) error {
					if set {
						return st.SetTx(tx, now, k, "v", 0)
					}
					_, _, err := st.GetTx(tx, now, k)
					return err
				})
				if err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
	b.Run("transfer", func(b *testing.B) {
		st, keys := newStore()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				from, to := keys[i%keySpace], keys[(i+7)%keySpace]
				err := st.Atomically(func(tx *stm.Tx, now int64) error {
					if _, err := st.IncrTx(tx, now, from, -1); err != nil {
						return err
					}
					_, err := st.IncrTx(tx, now, to, 1)
					return err
				})
				if err != nil {
					b.Error(err)
					return
				}
				i++
			}
		})
	})
}

// makeKeys returns n distinct 11-byte keys.
func makeKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key:%07d", i)
	}
	return keys
}

// preloadStore returns a default-shaped store holding keys, each with
// its own 16-byte value, loaded in batches of 256.
func preloadStore(tb testing.TB, keys []string) *Store {
	st := New(stm.New())
	batch := make([]KV, 0, 256)
	for i, k := range keys {
		batch = append(batch, KV{K: k, V: fmt.Sprintf("value:%010d", i)})
		if len(batch) == cap(batch) || i == len(keys)-1 {
			if err := st.MSet(batch...); err != nil {
				tb.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	return st
}

// TestHeapPerKey is the footprint gate: the heap a preloaded
// 100k-key store holds per key — the store and everything it reaches,
// value strings included, the keys made beforehand — after a
// collection on either side. Each key costs its map node, its entry,
// its cell in the bucket chain and its share of the bucket array; the
// figure is pinned with slack for run-to-run spread, so a change that
// adds an allocation or two words per key fails it.
func TestHeapPerKey(t *testing.T) {
	if testing.Short() {
		t.Skip("preloads 100k keys")
	}
	// 131–142 B over 38 runs on linux/amd64.
	const n, budget = 100_000, 150
	keys := makeKeys(n)
	before := liveHeap()
	st := preloadStore(t, keys)
	perKey := float64(liveHeap()-before) / n
	runtime.KeepAlive(st)
	t.Logf("%.1f B per key", perKey)
	if perKey > budget {
		t.Errorf("%.1f B per key, want <= %d", perKey, budget)
	}
}

// TestListHeapPerElement is the list's footprint gate: the heap a
// 200k-element list holds per element, the values made beforehand,
// after a collection on either side. The list is built by RPushTx in
// batches of 250, as a preload would. An element costs its string
// header in its run's slice and a 1/runCap share of the run: the run,
// its three Vars and their cells.
func TestListHeapPerElement(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 200k-element list")
	}
	// 26.4 B in each of 12 runs on linux/amd64 (runCap 32).
	const n, batch, budget = 200_000, 250, 30
	vals := makeKeys(n)
	st := New(stm.New())
	before := liveHeap()
	for i := 0; i < n; i += batch {
		err := st.Atomically(func(tx *stm.Tx, now int64) error {
			_, err := st.RPushTx(tx, now, "list", vals[i:i+batch]...)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	perElem := float64(liveHeap()-before) / n
	runtime.KeepAlive(st)
	runtime.KeepAlive(vals)
	t.Logf("%.1f B per element", perElem)
	if perElem > budget {
		t.Errorf("%.1f B per element, want <= %d", perElem, budget)
	}
}

// liveHeap returns the heap in use after two collections.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
