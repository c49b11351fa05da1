package container

import (
	"fmt"
	"math/rand/v2"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/stm"
)

// benchSTM builds the STM the container benchmarks run on: the greedy
// manager (the paper's headline policy) on pooled sessions.
func benchSTM() *stm.STM {
	return stm.New(stm.WithManagerFactory(core.MustFactory("greedy")))
}

// BenchmarkHashSetAdd measures concurrent add/remove churn on a
// 64-bucket set — mostly disjoint buckets, the manager's easiest case.
func BenchmarkHashSetAdd(b *testing.B) {
	s := benchSTM()
	h := NewHashSet[int](64)
	var seq atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewPCG(uint64(seq.Add(1)), 7))
		for pb.Next() {
			key := int(rng.Int64N(1024))
			var err error
			if rng.Int64N(2) == 0 {
				_, err = stm.Atomic(s, func(tx *stm.Tx) (bool, error) { return h.Add(tx, key) })
			} else {
				_, err = stm.Atomic(s, func(tx *stm.Tx) (bool, error) { return h.Remove(tx, key) })
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkHashSetContains measures read-only lookups against a
// pre-populated set.
func BenchmarkHashSetContains(b *testing.B) {
	s := benchSTM()
	h := NewHashSet[int](64)
	for i := 0; i < 512; i++ {
		if _, err := stm.Atomic(s, func(tx *stm.Tx) (bool, error) { return h.Add(tx, i) }); err != nil {
			b.Fatal(err)
		}
	}
	var seq atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewPCG(uint64(seq.Add(1)), 7))
		for pb.Next() {
			key := int(rng.Int64N(1024))
			if _, err := stm.Atomic(s, func(tx *stm.Tx) (bool, error) { return h.Contains(tx, key) }); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkOMapPut measures put/delete churn on the skip-list towers.
func BenchmarkOMapPut(b *testing.B) {
	s := benchSTM()
	m := NewOMap[int, int]()
	var seq atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewPCG(uint64(seq.Add(1)), 7))
		for pb.Next() {
			key := int(rng.Int64N(1024))
			var err error
			if rng.Int64N(2) == 0 {
				_, _, err = stm.Atomic2(s, func(tx *stm.Tx) (int, bool, error) { return m.Put(tx, key, key) })
			} else {
				_, _, err = stm.Atomic2(s, func(tx *stm.Tx) (int, bool, error) { return m.Delete(tx, key) })
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkOMapRange measures consistent range scans (span 32)
// competing with nothing — the raw multi-variable read cost.
func BenchmarkOMapRange(b *testing.B) {
	s := benchSTM()
	m := NewOMap[int, int]()
	for i := 0; i < 1024; i++ {
		if _, _, err := stm.Atomic2(s, func(tx *stm.Tx) (int, bool, error) { return m.Put(tx, i, i) }); err != nil {
			b.Fatal(err)
		}
	}
	var seq atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewPCG(uint64(seq.Add(1)), 7))
		for pb.Next() {
			from := int(rng.Int64N(1024 - 32))
			pairs, err := stm.Atomic(s, func(tx *stm.Tx) ([]KV[int, int], error) {
				return m.Range(tx, from, from+32)
			})
			if err != nil {
				b.Fatal(err)
			}
			if len(pairs) != 32 {
				b.Fatalf("range returned %d pairs, want 32", len(pairs))
			}
		}
	})
}

// BenchmarkDeque measures the deque's operations at the sizes the run
// length B (runCap) trades between: a push-back/pop-front pair in one
// transaction on a 64-element and a 100k-element deque, a 250-value
// push-back in one transaction, a 100-element prefix peek, and a
// whole-deque Items on 100k elements. Run it with -benchmem; the table
// beside runCap comes from it.
func BenchmarkDeque(b *testing.B) {
	s := benchSTM()
	const batch = 250
	vals := make([]int, batch)
	for i := range vals {
		vals[i] = i
	}
	filled := func(n int) *Deque[int] {
		d := NewDeque[int]()
		for i := 0; i < n; i += batch {
			if err := s.Atomically(func(tx *stm.Tx) error { return d.PushBack(tx, vals[:min(batch, n-i)]...) }); err != nil {
				b.Fatal(err)
			}
		}
		return d
	}
	for _, n := range []int{64, 100_000} {
		b.Run(fmt.Sprintf("pushpop/%d", n), func(b *testing.B) {
			d := filled(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				err := s.Atomically(func(tx *stm.Tx) error {
					if err := d.PushBack(tx, i); err != nil {
						return err
					}
					_, _, err := d.PopFront(tx)
					return err
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run(fmt.Sprintf("pushn/%d", batch), func(b *testing.B) {
		var d *Deque[int]
		for i := 0; i < b.N; i++ {
			// A fresh 64-element deque every 1000 pushes bounds the heap.
			if i%1000 == 0 {
				b.StopTimer()
				d = filled(64)
				b.StartTimer()
			}
			if err := s.Atomically(func(tx *stm.Tx) error { return d.PushBack(tx, vals...) }); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("peekfrontn/100", func(b *testing.B) {
		d := filled(100_000)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := stm.Atomic(s, func(tx *stm.Tx) ([]int, error) { return d.PeekFrontN(tx, 100) }); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("items/100000", func(b *testing.B) {
		d := filled(100_000)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := stm.Atomic(s, d.Items); err != nil {
				b.Fatal(err)
			}
		}
	})
}
