package container

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/stm"
)

// TestHashSetBasic exercises the single-threaded contract: add,
// duplicate add, contains, remove, and the bucket invariants.
func TestHashSetBasic(t *testing.T) {
	s := stm.New()
	h := NewHashSet[int](4) // few buckets => real chains
	for i := 0; i < 32; i++ {
		changed, err := stm.Atomic(s, func(tx *stm.Tx) (bool, error) { return h.Add(tx, i) })
		if err != nil || !changed {
			t.Fatalf("Add(%d) = %v, %v; want true, nil", i, changed, err)
		}
	}
	changed, err := stm.Atomic(s, func(tx *stm.Tx) (bool, error) { return h.Add(tx, 7) })
	if err != nil || changed {
		t.Fatalf("duplicate Add = %v, %v; want false, nil", changed, err)
	}
	for i := 0; i < 32; i++ {
		ok, err := stm.Atomic(s, func(tx *stm.Tx) (bool, error) { return h.Contains(tx, i) })
		if err != nil || !ok {
			t.Fatalf("Contains(%d) = %v, %v; want true, nil", i, ok, err)
		}
	}
	if ok, _ := stm.Atomic(s, func(tx *stm.Tx) (bool, error) { return h.Contains(tx, 99) }); ok {
		t.Fatal("Contains(99) on absent key = true")
	}
	for i := 0; i < 32; i += 2 {
		changed, err := stm.Atomic(s, func(tx *stm.Tx) (bool, error) { return h.Remove(tx, i) })
		if err != nil || !changed {
			t.Fatalf("Remove(%d) = %v, %v; want true, nil", i, changed, err)
		}
	}
	if changed, _ := stm.Atomic(s, func(tx *stm.Tx) (bool, error) { return h.Remove(tx, 2) }); changed {
		t.Fatal("Remove of absent key reported a change")
	}
	n, err := stm.Atomic(s, func(tx *stm.Tx) (int, error) { return h.Len(tx) })
	if err != nil || n != 16 {
		t.Fatalf("Len = %d, %v; want 16, nil", n, err)
	}
	if err := s.Atomically(h.CheckInvariants); err != nil {
		t.Fatal(err)
	}
}

// TestHashSetGrow loads a tiny set far past what two buckets can hold
// and checks that the inserts doubled the bucket array on their own
// and that growth preserved every element.
func TestHashSetGrow(t *testing.T) {
	s := stm.New()
	h := NewHashSet[int](2)
	const n = 128
	for i := 0; i < n; i++ {
		if _, err := stm.Atomic(s, func(tx *stm.Tx) (bool, error) { return h.Add(tx, i) }); err != nil {
			t.Fatal(err)
		}
	}
	// Chains only ever split, so with 8 buckets or fewer some chain of
	// 16 would have doubled the array on each of its last 7 inserts.
	if got := h.Buckets(); got < n/8 {
		t.Fatalf("buckets after %d adds = %d; want >= %d", n, got, n/8)
	}
	elems, err := stm.Atomic(s, func(tx *stm.Tx) ([]int, error) { return h.Elems(tx) })
	if err != nil {
		t.Fatal(err)
	}
	sort.Ints(elems)
	if len(elems) != n {
		t.Fatalf("grow lost elements: %d, want %d", len(elems), n)
	}
	for i, v := range elems {
		if v != i {
			t.Fatalf("element set damaged at %d: got %d", i, v)
		}
	}
	if err := s.Atomically(h.CheckInvariants); err != nil {
		t.Fatal(err)
	}
}

// TestHashSetGrowUnderWriters races in-transaction resizes against 32
// writer goroutines: each inserts a disjoint key range into a tiny
// set, so the inserts that find a chain too long double the array
// mid-storm, against every other writer. Afterwards every inserted
// key must be present, the array must have grown, and the bucket
// invariants must hold — the resize-vs-writers contract of Map.
func TestHashSetGrowUnderWriters(t *testing.T) {
	const writers = 32
	perWriter := hammerOps(t)
	s := stm.New(stm.WithManagerFactory(core.MustFactory("greedy")), stm.WithInterleavePeriod(4))
	h := NewHashSet[int](2) // tiny: every writer drives chains past GrowChain
	errs := make([]error, writers)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				key := g*perWriter + i
				changed, err := stm.Atomic(s, func(tx *stm.Tx) (bool, error) { return h.Add(tx, key) })
				if err != nil {
					errs[g] = err
					return
				}
				if !changed {
					errs[g] = fmt.Errorf("disjoint key %d already present", key)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := h.Buckets(); got <= 2 {
		t.Fatalf("bucket array never grew (still %d)", got)
	}
	elems, err := stm.Atomic(s, func(tx *stm.Tx) ([]int, error) { return h.Elems(tx) })
	if err != nil {
		t.Fatal(err)
	}
	if len(elems) != writers*perWriter {
		t.Fatalf("lost keys across resizes: %d, want %d", len(elems), writers*perWriter)
	}
	sort.Ints(elems)
	for i, v := range elems {
		if v != i {
			t.Fatalf("key set damaged at %d: got %d", i, v)
		}
	}
	if err := s.Atomically(h.CheckInvariants); err != nil {
		t.Fatal(err)
	}
}

// TestQueueBasic exercises FIFO order, empty dequeues, Peek and the
// structural invariants.
func TestQueueBasic(t *testing.T) {
	s := stm.New()
	q := NewQueue[string]()
	if _, ok, err := stm.Atomic2(s, q.Dequeue); err != nil || ok {
		t.Fatalf("dequeue on empty = ok=%v, err=%v; want false, nil", ok, err)
	}
	for _, v := range []string{"a", "b", "c"} {
		if err := s.Atomically(func(tx *stm.Tx) error { return q.Enqueue(tx, v) }); err != nil {
			t.Fatal(err)
		}
	}
	if v, ok, err := stm.Atomic2(s, q.Peek); err != nil || !ok || v != "a" {
		t.Fatalf("Peek = %q, %v, %v; want \"a\", true, nil", v, ok, err)
	}
	for _, want := range []string{"a", "b", "c"} {
		v, ok, err := stm.Atomic2(s, q.Dequeue)
		if err != nil || !ok || v != want {
			t.Fatalf("Dequeue = %q, %v, %v; want %q, true, nil", v, ok, err, want)
		}
	}
	if _, ok, _ := stm.Atomic2(s, q.Dequeue); ok {
		t.Fatal("dequeue on drained queue succeeded")
	}
	if err := s.Atomically(q.CheckInvariants); err != nil {
		t.Fatal(err)
	}
}

// TestOMapBasic exercises get/put/delete/range and the skip-list
// invariants on a permuted key load.
func TestOMapBasic(t *testing.T) {
	s := stm.New()
	m := NewOMap[int, string]()
	rng := rand.New(rand.NewPCG(1, 2))
	for _, k := range rng.Perm(128) {
		_, existed, err := stm.Atomic2(s, func(tx *stm.Tx) (string, bool, error) {
			return m.Put(tx, k, fmt.Sprintf("v%d", k))
		})
		if err != nil || existed {
			t.Fatalf("fresh Put(%d): existed=%v, err=%v", k, existed, err)
		}
	}
	// Overwrite returns the previous value.
	prev, existed, err := stm.Atomic2(s, func(tx *stm.Tx) (string, bool, error) {
		return m.Put(tx, 5, "new")
	})
	if err != nil || !existed || prev != "v5" {
		t.Fatalf("overwrite Put = %q, %v, %v; want \"v5\", true, nil", prev, existed, err)
	}
	v, ok, err := stm.Atomic2(s, func(tx *stm.Tx) (string, bool, error) { return m.Get(tx, 5) })
	if err != nil || !ok || v != "new" {
		t.Fatalf("Get(5) = %q, %v, %v; want \"new\", true, nil", v, ok, err)
	}
	if _, ok, _ := stm.Atomic2(s, func(tx *stm.Tx) (string, bool, error) { return m.Get(tx, 999) }); ok {
		t.Fatal("Get of absent key reported present")
	}
	// Range [20, 30) sees exactly those keys, ascending.
	pairs, err := stm.Atomic(s, func(tx *stm.Tx) ([]KV[int, string], error) { return m.Range(tx, 20, 30) })
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 10 {
		t.Fatalf("Range[20,30) returned %d pairs, want 10", len(pairs))
	}
	for i, kv := range pairs {
		if kv.Key != 20+i || kv.Val != fmt.Sprintf("v%d", kv.Key) {
			t.Fatalf("Range pair %d = %+v", i, kv)
		}
	}
	// Delete returns the stored value and shrinks the map.
	dv, ok, err := stm.Atomic2(s, func(tx *stm.Tx) (string, bool, error) { return m.Delete(tx, 5) })
	if err != nil || !ok || dv != "new" {
		t.Fatalf("Delete(5) = %q, %v, %v; want \"new\", true, nil", dv, ok, err)
	}
	if _, ok, _ := stm.Atomic2(s, func(tx *stm.Tx) (string, bool, error) { return m.Delete(tx, 5) }); ok {
		t.Fatal("second Delete(5) reported a change")
	}
	n, err := stm.Atomic(s, func(tx *stm.Tx) (int, error) { return m.Len(tx) })
	if err != nil || n != 127 {
		t.Fatalf("Len = %d, %v; want 127, nil", n, err)
	}
	if err := s.Atomically(m.CheckInvariants); err != nil {
		t.Fatal(err)
	}
}

// hammer runs goroutines against fn until each has executed ops
// operations, then runs check.
func hammer(t *testing.T, mgr string, goroutines, ops int, fn func(s *stm.STM, g, i int, rng *rand.Rand) error, check func(s *stm.STM) error) {
	t.Helper()
	s := stm.New(stm.WithManagerFactory(core.MustFactory(mgr)), stm.WithInterleavePeriod(4))
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		rng := rand.New(rand.NewPCG(uint64(g)+1, 42))
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				if err := fn(s, g, i, rng); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := check(s); err != nil {
		t.Fatal(err)
	}
}

// hammerOps picks the per-goroutine operation count: enough to force
// real conflicts, trimmed under -short so the full manager sweep stays
// fast in CI's race run.
func hammerOps(t *testing.T) int {
	if testing.Short() {
		return 60
	}
	return 250
}

// errHammerFuse is the hammers' livelock fuse. Managers without a
// progress guarantee (aggressive above all) can keep two writers
// aborting each other for thousands of attempts under the race
// detector, so an operation gives up after a bounded number of
// attempts instead of hanging the test. A fused operation simply never
// happened, so the audits that end each hammer stay exact.
var errHammerFuse = errors.New("container: hammer livelock fuse blew")

// newFuse returns one operation's attempt guard: called first in the
// transaction body, it fails with errHammerFuse once the body has run
// more than 500 times.
func newFuse() func() error {
	attempts := 0
	return func() error {
		if attempts++; attempts > 500 {
			return errHammerFuse
		}
		return nil
	}
}

// TestHashSetHammer drives 32 goroutines of mixed add/remove/contains
// traffic on a small bucket array under every registry manager, then
// audits the bucket invariants.
func TestHashSetHammer(t *testing.T) {
	const goroutines = 32
	ops := hammerOps(t)
	for _, mgr := range core.Names() {
		t.Run(mgr, func(t *testing.T) {
			h := NewHashSet[int](8)
			fn := func(s *stm.STM, g, i int, rng *rand.Rand) error {
				key := int(rng.Int64N(64))
				switch rng.Int64N(3) {
				case 0:
					_, err := stm.Atomic(s, func(tx *stm.Tx) (bool, error) { return h.Add(tx, key) })
					return err
				case 1:
					_, err := stm.Atomic(s, func(tx *stm.Tx) (bool, error) { return h.Remove(tx, key) })
					return err
				default:
					_, err := stm.Atomic(s, func(tx *stm.Tx) (bool, error) { return h.Contains(tx, key) })
					return err
				}
			}
			hammer(t, mgr, goroutines, ops, fn, func(s *stm.STM) error {
				return s.Atomically(h.CheckInvariants)
			})
		})
	}
}

// TestQueueHammer drives 16 producers and 16 consumers through the
// queue's head/tail hot spots under every registry manager, checking
// conservation: everything dequeued was enqueued exactly once, and the
// leftovers match.
func TestQueueHammer(t *testing.T) {
	const producers, consumers = 16, 16
	ops := hammerOps(t)
	for _, mgr := range core.Names() {
		t.Run(mgr, func(t *testing.T) {
			q := NewQueue[int]()
			var mu sync.Mutex
			consumed := make(map[int]int)
			fn := func(s *stm.STM, g, i int, rng *rand.Rand) error {
				if g < producers {
					return s.Atomically(func(tx *stm.Tx) error {
						return q.Enqueue(tx, g*1_000_000+i)
					})
				}
				v, ok, err := stm.Atomic2(s, q.Dequeue)
				if err != nil {
					return err
				}
				if ok {
					mu.Lock()
					consumed[v]++
					mu.Unlock()
				}
				return nil
			}
			hammer(t, mgr, producers+consumers, ops, fn, func(s *stm.STM) error {
				left, err := stm.Atomic(s, func(tx *stm.Tx) ([]int, error) { return q.Items(tx) })
				if err != nil {
					return err
				}
				for v, n := range consumed {
					if n != 1 {
						return fmt.Errorf("value %d consumed %d times", v, n)
					}
				}
				for _, v := range left {
					if consumed[v] != 0 {
						return fmt.Errorf("value %d both consumed and still queued", v)
					}
				}
				if got := len(consumed) + len(left); got != producers*ops {
					return fmt.Errorf("conservation broken: %d consumed + %d queued != %d produced",
						len(consumed), len(left), producers*ops)
				}
				return s.Atomically(q.CheckInvariants)
			})
		})
	}
}

// TestOMapHammer drives 32 goroutines of put/delete/get/range traffic
// on a small key range under every registry manager, then audits the
// skip-list invariants. Every transaction carries the livelock fuse;
// greedy, whose timestamp order guarantees progress, must never blow
// it.
func TestOMapHammer(t *testing.T) {
	const goroutines = 32
	ops := hammerOps(t)
	for _, mgr := range core.Names() {
		t.Run(mgr, func(t *testing.T) {
			m := NewOMap[int, int]()
			var fused atomic.Int64
			fn := func(s *stm.STM, g, i int, rng *rand.Rand) error {
				key, op := int(rng.Int64N(64)), rng.Int64N(4)
				fuse := newFuse()
				var pairs []KV[int, int]
				err := s.Atomically(func(tx *stm.Tx) error {
					if err := fuse(); err != nil {
						return err
					}
					var err error
					switch op {
					case 0:
						_, _, err = m.Put(tx, key, g)
					case 1:
						_, _, err = m.Delete(tx, key)
					case 2:
						_, _, err = m.Get(tx, key)
					default:
						pairs, err = m.Range(tx, key, key+8)
					}
					return err
				})
				if errors.Is(err, errHammerFuse) {
					fused.Add(1)
					return nil
				}
				for i := 1; i < len(pairs); i++ {
					if pairs[i-1].Key >= pairs[i].Key {
						return fmt.Errorf("range not ascending: %v", pairs)
					}
				}
				return err
			}
			hammer(t, mgr, goroutines, ops, fn, func(s *stm.STM) error {
				return s.Atomically(m.CheckInvariants)
			})
			t.Logf("%s: %d of %d operations fused", mgr, fused.Load(), goroutines*ops)
			if mgr == "greedy" && fused.Load() > 0 {
				t.Errorf("greedy blew the livelock fuse on %d operations", fused.Load())
			}
		})
	}
}

// TestComposedCrossContainer moves items from a queue into an ordered
// map and a hash set inside single transactions — the dequeue-then-put
// composition — while a concurrent auditor takes consistent
// multi-container reads. The invariant: each item is in exactly one
// container at every serialization point, so the three sizes always
// sum to the initial load.
func TestComposedCrossContainer(t *testing.T) {
	const items = 64
	const movers = 16
	// Greedy, not a karma-family manager: the auditor's huge read-set
	// priority would let karma abort movers relentlessly, inflating
	// every mover's accumulated priority and with it the quantum-sleep
	// gaps between them — the starvation regime the paper documents in
	// Section 6, pathological under the race detector. Greedy's
	// timestamp order guarantees progress.
	s := stm.New(stm.WithManagerFactory(core.MustFactory("greedy")), stm.WithInterleavePeriod(4))
	q := NewQueue[int]()
	m := NewOMap[int, int]()
	h := NewHashSet[int](8)
	for i := 0; i < items; i++ {
		if err := s.Atomically(func(tx *stm.Tx) error { return q.Enqueue(tx, i) }); err != nil {
			t.Fatal(err)
		}
	}
	count := func(tx *stm.Tx) (int, error) {
		qn, err := q.Len(tx)
		if err != nil {
			return 0, err
		}
		mn, err := m.Len(tx)
		if err != nil {
			return 0, err
		}
		hn, err := h.Len(tx)
		if err != nil {
			return 0, err
		}
		return qn + mn + hn, nil
	}
	var wg sync.WaitGroup
	errs := make([]error, movers+1)
	for g := 0; g < movers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < items/movers*2; i++ {
				// One transaction: dequeue, then place the item in the
				// map (even) or the set (odd). Empty queue is a no-op.
				errs[g] = s.Atomically(func(tx *stm.Tx) error {
					v, ok, err := q.Dequeue(tx)
					if err != nil || !ok {
						return err
					}
					if v%2 == 0 {
						_, _, err = m.Put(tx, v, g)
						return err
					}
					_, err = h.Add(tx, v)
					return err
				})
				if errs[g] != nil {
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			n, err := stm.Atomic(s, count)
			if err != nil {
				errs[movers] = err
				return
			}
			if n != items {
				errs[movers] = fmt.Errorf("auditor saw %d items, want %d", n, items)
				return
			}
		}
	}()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	// Everything moved: map holds the evens, set holds the odds.
	keys, err := stm.Atomic(s, func(tx *stm.Tx) ([]int, error) { return m.Keys(tx) })
	if err != nil {
		t.Fatal(err)
	}
	elems, err := stm.Atomic(s, func(tx *stm.Tx) ([]int, error) { return h.Elems(tx) })
	if err != nil {
		t.Fatal(err)
	}
	qn, err := stm.Atomic(s, func(tx *stm.Tx) (int, error) { return q.Len(tx) })
	if err != nil {
		t.Fatal(err)
	}
	if qn != 0 {
		t.Fatalf("queue still holds %d items", qn)
	}
	got := append(append([]int{}, keys...), elems...)
	sort.Ints(got)
	for i, v := range got {
		if v != i {
			t.Fatalf("item set damaged at %d: %v", i, got)
		}
	}
	for _, k := range keys {
		if k%2 != 0 {
			t.Fatalf("odd key %d landed in the map", k)
		}
	}
	for _, e := range elems {
		if e%2 != 1 {
			t.Fatalf("even element %d landed in the set", e)
		}
	}
}
