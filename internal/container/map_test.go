package container

import (
	"fmt"
	"hash/maphash"
	"math/rand/v2"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/stm"
)

// TestMapModel checks Map against a Go map under every registry
// manager, eager and lazy: four goroutines run random get/put/delete
// transactions, each on its own residue class of keys so its private
// model predicts every result exactly while the bucket chains, and the
// resizes the inserts trigger, are shared. After each batch the map
// must pass its invariants and hold exactly the union of the models,
// and a Prune thins it — between batches, because a whole-map
// transaction racing a stream of short writers starves under the
// managers that always yield to a new enemy (kindergarten: minutes
// under -race). The run must cross at least three doublings.
func TestMapModel(t *testing.T) {
	const (
		workers  = 4
		batches  = 6
		keySpace = 400 // per worker
		buckets  = 2
	)
	ops := 150
	if testing.Short() {
		ops = 60
	}
	for _, mgr := range core.Names() {
		for _, lazy := range []bool{false, true} {
			name := mgr + "/eager"
			opts := []stm.Option{stm.WithManagerFactory(core.MustFactory(mgr)), stm.WithInterleavePeriod(4)}
			if lazy {
				name = mgr + "/lazy"
				opts = append(opts, stm.WithLazyConflicts())
			}
			t.Run(name, func(t *testing.T) {
				s := stm.New(opts...)
				m := NewMap[int, int]("", buckets, maphash.Comparable[int])
				models := make([]map[int]int, workers)
				rngs := make([]*rand.Rand, workers)
				for w := range models {
					models[w] = make(map[int]int)
					rngs[w] = rand.New(rand.NewPCG(uint64(w)+1, 7))
				}
				for batch := 0; batch < batches; batch++ {
					var wg sync.WaitGroup
					errs := make([]error, workers)
					for w := 0; w < workers; w++ {
						wg.Add(1)
						go func(w int) {
							defer wg.Done()
							for i := 0; i < ops && errs[w] == nil; i++ {
								errs[w] = modelStep(s, m, models[w], rngs[w], w, workers, keySpace)
							}
						}(w)
					}
					wg.Wait()
					for _, err := range errs {
						if err != nil {
							t.Fatal(err)
						}
					}
					want := make(map[int]int)
					for _, model := range models {
						for k, v := range model {
							want[k] = v
						}
					}
					got := make(map[int]int)
					err := s.Atomically(func(tx *stm.Tx) error {
						clear(got)
						if err := m.CheckInvariants(tx); err != nil {
							return err
						}
						n, err := m.Len(tx)
						if err != nil {
							return err
						}
						if n != len(want) {
							return fmt.Errorf("Len = %d, models hold %d", n, len(want))
						}
						return m.Each(tx, func(k, v int) error { got[k] = v; return nil })
					})
					if err != nil {
						t.Fatalf("batch %d: %v", batch, err)
					}
					for k, v := range want {
						if gv, ok := got[k]; !ok || gv != v {
							t.Fatalf("batch %d: key %d = %d, %v; model says %d", batch, k, gv, ok, v)
						}
					}
					if len(got) != len(want) {
						t.Fatalf("batch %d: Each yielded %d bindings, models hold %d", batch, len(got), len(want))
					}
					doomed := func(_, v int) bool { return v&7 == batch }
					removed, err := stm.Atomic(s, func(tx *stm.Tx) ([]int, error) { return m.Prune(tx, doomed) })
					if err != nil {
						t.Fatal(err)
					}
					for _, k := range removed {
						model := models[k%workers]
						if v, ok := model[k]; !ok || !doomed(k, v) {
							t.Fatalf("batch %d: Prune removed %d, which the models do not condemn", batch, k)
						}
						delete(model, k)
					}
					for _, model := range models {
						for k, v := range model {
							if doomed(k, v) {
								t.Fatalf("batch %d: Prune spared %d", batch, k)
							}
						}
					}
				}
				if got := m.Buckets(); got < buckets<<3 {
					t.Fatalf("buckets = %d after the run; want at least three doublings of %d", got, buckets)
				}
			})
		}
	}
}

// modelStep runs one random operation of worker w (keys ≡ w mod
// workers) as a transaction on m and checks its result against model.
func modelStep(s *stm.STM, m *Map[int, int], model map[int]int, rng *rand.Rand, w, workers, keySpace int) error {
	k := int(rng.Int64N(int64(keySpace)))*workers + w
	old, had := model[k]
	switch r := rng.Int64N(100); {
	case r < 55:
		v := int(rng.Int64())
		got, ok, err := stm.Atomic2(s, func(tx *stm.Tx) (int, bool, error) { return m.Put(tx, k, v) })
		if err != nil || ok != had || got != old {
			return fmt.Errorf("Put(%d) = %d, %v, %v; model says %d, %v", k, got, ok, err, old, had)
		}
		model[k] = v
	case r < 75:
		got, ok, err := stm.Atomic2(s, func(tx *stm.Tx) (int, bool, error) { return m.Delete(tx, k) })
		if err != nil || ok != had || got != old {
			return fmt.Errorf("Delete(%d) = %d, %v, %v; model says %d, %v", k, got, ok, err, old, had)
		}
		delete(model, k)
	default:
		got, ok, err := stm.Atomic2(s, func(tx *stm.Tx) (int, bool, error) { return m.Get(tx, k) })
		if err != nil || ok != had || got != old {
			return fmt.Errorf("Get(%d) = %d, %v, %v; model says %d, %v", k, got, ok, err, old, had)
		}
	}
	return nil
}

// TestMapOnlyInsertsGrow plants a chain twice GrowChain long and then
// overwrites, reads and deletes its deepest key: none of that may
// resize the map or open anything beyond the array variable and the
// one bucket, however over-long the chain. The next insert into the
// chain is what doubles the array.
func TestMapOnlyInsertsGrow(t *testing.T) {
	s := stm.New()
	m := NewMap[int, int]("", 1, maphash.Comparable[int])
	var chain *mapNode[int, int]
	for k := 2 * GrowChain; k > 0; k-- {
		chain = &mapNode[int, int]{key: k, val: k, next: chain}
	}
	if err := s.Atomically(func(tx *stm.Tx) error { return stm.Write(tx, m.table.peek().At(0), chain) }); err != nil {
		t.Fatal(err)
	}
	const rounds = 10_000
	deepest := 2 * GrowChain
	before := s.TotalStats()
	for i := 0; i < rounds; i++ {
		if _, _, err := stm.Atomic2(s, func(tx *stm.Tx) (int, bool, error) { return m.Put(tx, deepest, i) }); err != nil {
			t.Fatal(err)
		}
	}
	after := s.TotalStats()
	if got := after.Commits - before.Commits; got != rounds {
		t.Fatalf("%d overwrites took %d commits", rounds, got)
	}
	if got := after.Opens - before.Opens; got > 3*rounds {
		t.Fatalf("%d overwrites opened %d variables; want at most 3 each (array, bucket read, bucket write)", rounds, got)
	}
	if v, ok, err := stm.Atomic2(s, func(tx *stm.Tx) (int, bool, error) { return m.Get(tx, deepest) }); err != nil || !ok || v != rounds-1 {
		t.Fatalf("Get(deepest) = %d, %v, %v", v, ok, err)
	}
	if _, ok, err := stm.Atomic2(s, func(tx *stm.Tx) (int, bool, error) { return m.Delete(tx, deepest) }); err != nil || !ok {
		t.Fatalf("Delete(deepest) = %v, %v", ok, err)
	}
	if got := m.Buckets(); got != 1 {
		t.Fatalf("overwrite, read and delete grew the map to %d buckets", got)
	}
	if _, _, err := stm.Atomic2(s, func(tx *stm.Tx) (int, bool, error) { return m.Put(tx, 0, 0) }); err != nil {
		t.Fatal(err)
	}
	if got := m.Buckets(); got != 2 {
		t.Fatalf("insert into a chain of %d left %d buckets; want 2", 2*GrowChain, got)
	}
	n, err := stm.Atomic(s, m.Len)
	if err != nil || n != 2*GrowChain {
		t.Fatalf("Len = %d, %v; want %d", n, err, 2*GrowChain)
	}
	if err := s.Atomically(m.CheckInvariants); err != nil {
		t.Fatal(err)
	}
}

// TestMapClassWalkSurvivesGrowth walks a map one residue class per
// transaction while inserts double it between the transactions: every
// key present for the whole walk is visited exactly once, in the class
// ClassOf names, and no transaction opens more than the array variable
// plus the buckets of its class.
func TestMapClassWalkSurvivesGrowth(t *testing.T) {
	s := stm.New()
	m := NewMap[int, int]("", 6, maphash.Comparable[int]) // 6: classes need not be powers of two
	put := func(lo, hi int) {
		for k := lo; k < hi; k++ {
			if err := s.Atomically(func(tx *stm.Tx) error { _, _, err := m.Put(tx, k, k); return err }); err != nil {
				t.Fatal(err)
			}
		}
	}
	put(0, 60)
	const of = 3
	start := m.Buckets()
	if start%of != 0 {
		t.Fatalf("%d buckets, want a multiple of %d", start, of)
	}
	seen := make(map[int]int)
	for r := 0; r < of; r++ {
		var keys []int
		err := s.Atomically(func(tx *stm.Tx) error {
			n, err := m.BucketCount(tx)
			if err != nil {
				return err
			}
			var walked []int
			if err := m.EachIn(tx, r, of, func(k, _ int) error { walked = append(walked, k); return nil }); err != nil {
				return err
			}
			keys = walked
			if tx.Opens() != 1+n/of {
				t.Errorf("class %d of %d over %d buckets opened %d variables, want %d", r, of, n, tx.Opens(), 1+n/of)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			if got := m.ClassOf(k, of); got != r {
				t.Fatalf("key %d walked in class %d, ClassOf says %d", k, r, got)
			}
			seen[k]++
		}
		put(1000*(r+1), 1000*(r+1)+150) // at least one doubling before the next class
	}
	if m.Buckets() < 8*start {
		t.Fatalf("buckets %d → %d across the walk, want three doublings", start, m.Buckets())
	}
	for k := 0; k < 60; k++ {
		if seen[k] != 1 {
			t.Fatalf("key %d, present throughout, visited %d times", k, seen[k])
		}
	}
	if err := s.Atomically(func(tx *stm.Tx) error { return m.EachIn(tx, 0, 5, func(int, int) error { return nil }) }); err == nil {
		t.Fatal("EachIn accepted a class count that does not divide the bucket count")
	}
}

// TestTableMintAllocs pins minting n buckets to n allocations plus a
// constant: the bucket variables live in one slice (stm.MakeVars), so
// each bucket costs only its birth cell. The constant is the Table,
// the array variable and its cell, the contents slice and the slice
// of bucket variables. A resize mints the same way.
func TestTableMintAllocs(t *testing.T) {
	const n = 1024
	got := testing.AllocsPerRun(20, func() { _ = NewTable[*int](n) })
	if want := float64(n + 5); got != want {
		t.Errorf("NewTable(%d): %.0f allocs, want %.0f", n, got, want)
	}
}
