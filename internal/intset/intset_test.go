package intset_test

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/intset"
	"repro/internal/stm"
)

// world wires a fresh STM whose pooled sessions use the greedy
// manager; sequential structure tests drive it through the
// goroutine-agnostic Atomically.
func world(t *testing.T) *stm.STM {
	t.Helper()
	return stm.New(stm.WithManagerFactory(core.MustFactory("greedy")))
}

func mustInsert(t *testing.T, w *stm.STM, s intset.Set, key int) bool {
	t.Helper()
	var ok bool
	err := w.Atomically(func(tx *stm.Tx) error {
		var err error
		ok, err = s.Insert(tx, key)
		return err
	})
	if err != nil {
		t.Fatalf("Insert(%d): %v", key, err)
	}
	return ok
}

func mustRemove(t *testing.T, w *stm.STM, s intset.Set, key int) bool {
	t.Helper()
	var ok bool
	err := w.Atomically(func(tx *stm.Tx) error {
		var err error
		ok, err = s.Remove(tx, key)
		return err
	})
	if err != nil {
		t.Fatalf("Remove(%d): %v", key, err)
	}
	return ok
}

func mustContains(t *testing.T, w *stm.STM, s intset.Set, key int) bool {
	t.Helper()
	var ok bool
	err := w.Atomically(func(tx *stm.Tx) error {
		var err error
		ok, err = s.Contains(tx, key)
		return err
	})
	if err != nil {
		t.Fatalf("Contains(%d): %v", key, err)
	}
	return ok
}

func mustKeys(t *testing.T, w *stm.STM, s intset.Set) []int {
	t.Helper()
	var keys []int
	err := w.Atomically(func(tx *stm.Tx) error {
		var err error
		keys, err = s.Keys(tx)
		return err
	})
	if err != nil {
		t.Fatalf("Keys: %v", err)
	}
	return keys
}

// eachStructure runs the subtest against every benchmark structure.
func eachStructure(t *testing.T, fn func(t *testing.T, fresh func() intset.Set)) {
	t.Helper()
	cases := map[string]func() intset.Set{
		"list":     func() intset.Set { return intset.NewList() },
		"skiplist": func() intset.Set { return intset.NewSkipList() },
		"rbtree":   func() intset.Set { return intset.NewRBTree() },
		"rbforest": func() intset.Set { return intset.NewRBForest(5) },
	}
	for name, fresh := range cases {
		t.Run(name, func(t *testing.T) { fn(t, fresh) })
	}
}

func TestEmptySet(t *testing.T) {
	eachStructure(t, func(t *testing.T, fresh func() intset.Set) {
		w := world(t)
		s := fresh()
		if mustContains(t, w, s, 7) {
			t.Fatal("empty set contains 7")
		}
		if mustRemove(t, w, s, 7) {
			t.Fatal("removing from empty set reported a change")
		}
		if keys := mustKeys(t, w, s); len(keys) != 0 {
			t.Fatalf("empty set keys = %v", keys)
		}
	})
}

func TestInsertRemoveRoundTrip(t *testing.T) {
	eachStructure(t, func(t *testing.T, fresh func() intset.Set) {
		w := world(t)
		s := fresh()
		if !mustInsert(t, w, s, 42) {
			t.Fatal("first insert reported no change")
		}
		if mustInsert(t, w, s, 42) {
			t.Fatal("duplicate insert reported a change")
		}
		if !mustContains(t, w, s, 42) {
			t.Fatal("set does not contain inserted key")
		}
		if !mustRemove(t, w, s, 42) {
			t.Fatal("remove reported no change")
		}
		if mustContains(t, w, s, 42) {
			t.Fatal("set contains removed key")
		}
	})
}

func TestKeysSortedAscending(t *testing.T) {
	eachStructure(t, func(t *testing.T, fresh func() intset.Set) {
		w := world(t)
		s := fresh()
		for _, k := range []int{5, 1, 9, 3, 7, 0, 8, 2, 6, 4} {
			mustInsert(t, w, s, k)
		}
		want := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
		if got := mustKeys(t, w, s); !reflect.DeepEqual(got, want) {
			t.Fatalf("Keys = %v, want %v", got, want)
		}
	})
}

// TestAgainstModel drives every structure with a scripted random
// sequence and checks each reply and the final contents against a
// map-based model.
func TestAgainstModel(t *testing.T) {
	eachStructure(t, func(t *testing.T, fresh func() intset.Set) {
		w := world(t)
		s := fresh()
		model := make(map[int]bool)
		rng := rand.New(rand.NewPCG(1, 2))
		for i := 0; i < 2000; i++ {
			key := int(rng.Int64N(64))
			switch rng.Int64N(3) {
			case 0:
				want := !model[key]
				model[key] = true
				if got := mustInsert(t, w, s, key); got != want {
					t.Fatalf("op %d: Insert(%d) = %v, want %v", i, key, got, want)
				}
			case 1:
				want := model[key]
				delete(model, key)
				if got := mustRemove(t, w, s, key); got != want {
					t.Fatalf("op %d: Remove(%d) = %v, want %v", i, key, got, want)
				}
			default:
				if got := mustContains(t, w, s, key); got != model[key] {
					t.Fatalf("op %d: Contains(%d) = %v, want %v", i, key, got, model[key])
				}
			}
		}
		var want []int
		for k := range model {
			want = append(want, k)
		}
		sort.Ints(want)
		got := mustKeys(t, w, s)
		if len(got) == 0 && len(want) == 0 {
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("final keys = %v, want %v", got, want)
		}
	})
}

// TestQuickSetSemantics is the property-test version of the model
// check: arbitrary operation strings over a small key space preserve
// set semantics on every structure.
func TestQuickSetSemantics(t *testing.T) {
	eachStructure(t, func(t *testing.T, fresh func() intset.Set) {
		property := func(ops []uint16) bool {
			w := world(t)
			s := fresh()
			model := make(map[int]bool)
			for _, op := range ops {
				key := int(op & 0x1f)
				var got, want bool
				var err error
				txErr := w.Atomically(func(tx *stm.Tx) error {
					switch op >> 14 {
					case 0, 2:
						got, err = s.Insert(tx, key)
					case 1:
						got, err = s.Remove(tx, key)
					default:
						got, err = s.Contains(tx, key)
					}
					return err
				})
				if txErr != nil {
					return false
				}
				switch op >> 14 {
				case 0, 2:
					want = !model[key]
					model[key] = true
				case 1:
					want = model[key]
					delete(model, key)
				default:
					want = model[key]
				}
				if got != want {
					return false
				}
			}
			return true
		}
		if err := quick.Check(property, &quick.Config{MaxCount: 40}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRBTreeInvariantsUnderRandomOps hammers the red-black tree
// sequentially and audits the invariants after every operation.
func TestRBTreeInvariantsUnderRandomOps(t *testing.T) {
	w := world(t)
	tree := intset.NewRBTree()
	rng := rand.New(rand.NewPCG(7, 11))
	for i := 0; i < 3000; i++ {
		key := int(rng.Int64N(128))
		// Decide the operation before the transaction: a retried body
		// must not re-draw it (txpure) — moot in this sequential test,
		// but the fixture should model the idiom it audits.
		insert := rng.Int64N(2) == 0
		err := w.Atomically(func(tx *stm.Tx) error {
			var err error
			if insert {
				_, err = tree.Insert(tx, key)
			} else {
				_, err = tree.Remove(tx, key)
			}
			if err != nil {
				return err
			}
			return tree.CheckInvariants(tx)
		})
		if err != nil {
			t.Fatalf("op %d (key %d): %v", i, key, err)
		}
	}
}

// TestQuickRBTreeInvariants: arbitrary insert/delete scripts leave a
// valid red-black tree matching a model set.
func TestQuickRBTreeInvariants(t *testing.T) {
	property := func(script []int16) bool {
		w := world(t)
		tree := intset.NewRBTree()
		model := make(map[int]bool)
		for _, op := range script {
			key := int(op & 0xff)
			insert := op >= 0
			err := w.Atomically(func(tx *stm.Tx) error {
				var err error
				if insert {
					_, err = tree.Insert(tx, key)
				} else {
					_, err = tree.Remove(tx, key)
				}
				if err != nil {
					return err
				}
				return tree.CheckInvariants(tx)
			})
			if err != nil {
				return false
			}
			if insert {
				model[key] = true
			} else {
				delete(model, key)
			}
		}
		var want []int
		for k := range model {
			want = append(want, k)
		}
		sort.Ints(want)
		got := mustKeys(t, w, tree)
		if len(got) == 0 && len(want) == 0 {
			return true
		}
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// runConcurrentAudit stresses a structure with parallel workers under
// the given manager and audits the final contents against the set of
// keys whose last committed operation was an insert. Exact final
// contents cannot be predicted under concurrency, so instead each
// worker tracks its own committed operations and we check agreement of
// the final Keys with a replay that respects commit order per key —
// simplified here to checking structural integrity plus Contains
// consistency for every key in/out of Keys.
func runConcurrentAudit(t *testing.T, fresh func() intset.Set, factory stm.ManagerFactory, workers, ops int) {
	t.Helper()
	s := stm.New(stm.WithManagerFactory(factory))
	set := fresh()
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		rng := rand.New(rand.NewPCG(uint64(w), 99))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				key := int(rng.Int64N(48))
				insert := rng.Int64N(2) == 0
				err := s.Atomically(func(tx *stm.Tx) error {
					var err error
					if insert {
						_, err = set.Insert(tx, key)
					} else {
						_, err = set.Remove(tx, key)
					}
					return err
				})
				if err != nil {
					errs <- fmt.Errorf("worker %d op %d: %w", w, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Structural audit.
	keys := mustKeys(t, s, set)
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("final keys not strictly ascending: %v", keys)
		}
	}
	inSet := make(map[int]bool, len(keys))
	for _, k := range keys {
		inSet[k] = true
	}
	for key := 0; key < 48; key++ {
		if got := mustContains(t, s, set, key); got != inSet[key] {
			t.Fatalf("Contains(%d) = %v disagrees with Keys %v", key, got, keys)
		}
	}
	if tree, ok := set.(*intset.RBTree); ok {
		if err := s.Atomically(tree.CheckInvariants); err != nil {
			t.Fatalf("red-black invariants violated after concurrent run: %v", err)
		}
	}
}

func TestConcurrentListGreedy(t *testing.T) {
	runConcurrentAudit(t, func() intset.Set { return intset.NewList() },
		func() stm.Manager { return core.NewGreedy() }, 6, 120)
}

func TestConcurrentSkipListGreedy(t *testing.T) {
	runConcurrentAudit(t, func() intset.Set { return intset.NewSkipList() },
		func() stm.Manager { return core.NewGreedy() }, 6, 120)
}

func TestConcurrentRBTreeGreedy(t *testing.T) {
	runConcurrentAudit(t, func() intset.Set { return intset.NewRBTree() },
		func() stm.Manager { return core.NewGreedy() }, 6, 120)
}

func TestConcurrentRBTreeAggressive(t *testing.T) {
	runConcurrentAudit(t, func() intset.Set { return intset.NewRBTree() },
		func() stm.Manager { return core.NewAggressive() }, 4, 80)
}

func TestConcurrentListKarma(t *testing.T) {
	runConcurrentAudit(t, func() intset.Set { return intset.NewList() },
		func() stm.Manager { return core.NewKarma() }, 4, 80)
}

// TestLazySTMRunsStructures drives every structure on a lazy-mode STM
// (commit-time conflict detection): the structures are detection-mode
// agnostic, and the concurrent audit must still hold.
func TestLazySTMRunsStructures(t *testing.T) {
	eachStructure(t, func(t *testing.T, fresh func() intset.Set) {
		s := stm.New(stm.WithLazyConflicts(), stm.WithInterleavePeriod(4),
			stm.WithManagerFactory(core.MustFactory("greedy")))
		set := fresh()
		var wg sync.WaitGroup
		errs := make(chan error, 4)
		for w := 0; w < 4; w++ {
			rng := rand.New(rand.NewPCG(uint64(w), 3))
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 60; i++ {
					key := int(rng.Int64N(32))
					insert := rng.Int64N(2) == 0
					err := s.Atomically(func(tx *stm.Tx) error {
						var err error
						if insert {
							_, err = set.Insert(tx, key)
						} else {
							_, err = set.Remove(tx, key)
						}
						return err
					})
					if err != nil {
						errs <- err
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		keys := mustKeys(t, s, set)
		for i := 1; i < len(keys); i++ {
			if keys[i-1] >= keys[i] {
				t.Fatalf("keys not ascending after lazy run: %v", keys)
			}
		}
		if tree, ok := set.(*intset.RBTree); ok {
			if err := s.Atomically(tree.CheckInvariants); err != nil {
				t.Fatalf("lazy rbtree invariants: %v", err)
			}
		}
	})
}

func TestForestOneOrAll(t *testing.T) {
	w := world(t)
	forest := intset.NewRBForest(7)
	// InsertAll plants the key everywhere; RemoveOne carves one tree.
	err := w.Atomically(func(tx *stm.Tx) error {
		if _, err := forest.InsertAll(tx, 5); err != nil {
			return err
		}
		_, err := forest.RemoveOne(tx, 3, 5)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < forest.Size(); i++ {
		var got bool
		err := w.Atomically(func(tx *stm.Tx) error {
			var err error
			got, err = forest.ContainsIn(tx, i, 5)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		want := i != 3
		if got != want {
			t.Fatalf("tree %d contains 5 = %v, want %v", i, got, want)
		}
	}
}

func TestForestIndexOutOfRange(t *testing.T) {
	w := world(t)
	forest := intset.NewRBForest(3)
	err := w.Atomically(func(tx *stm.Tx) error {
		_, err := forest.InsertOne(tx, 9, 1)
		return err
	})
	if err == nil {
		t.Fatal("InsertOne with out-of-range tree index succeeded")
	}
}
