package container

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/stm"
)

// TestDequeBasic exercises the single-threaded contract: both ends
// push and pop in the right order, peeks do not consume, Len tracks,
// and the link/counter invariants hold throughout.
func TestDequeBasic(t *testing.T) {
	s := stm.New()
	d := NewDeque[int]()
	if _, ok, _ := stm.Atomic2(s, d.PopFront); ok {
		t.Fatal("PopFront on empty deque reported an element")
	}
	if _, ok, _ := stm.Atomic2(s, d.PopBack); ok {
		t.Fatal("PopBack on empty deque reported an element")
	}
	// Build 3,2,1 | 4,5: PushFront 1..3, PushBack 4..5.
	for i := 1; i <= 3; i++ {
		if err := s.Atomically(func(tx *stm.Tx) error { return d.PushFront(tx, i) }); err != nil {
			t.Fatal(err)
		}
	}
	for i := 4; i <= 5; i++ {
		if err := s.Atomically(func(tx *stm.Tx) error { return d.PushBack(tx, i) }); err != nil {
			t.Fatal(err)
		}
	}
	items, err := stm.Atomic(s, d.Items)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{3, 2, 1, 4, 5}
	if fmt.Sprint(items) != fmt.Sprint(want) {
		t.Fatalf("Items = %v, want %v", items, want)
	}
	if n, _ := stm.Atomic(s, d.Len); n != 5 {
		t.Fatalf("Len = %d, want 5", n)
	}
	if v, ok, _ := stm.Atomic2(s, d.PeekFront); !ok || v != 3 {
		t.Fatalf("PeekFront = %d, %v; want 3, true", v, ok)
	}
	if v, ok, _ := stm.Atomic2(s, d.PeekBack); !ok || v != 5 {
		t.Fatalf("PeekBack = %d, %v; want 5, true", v, ok)
	}
	prefix, err := stm.Atomic(s, func(tx *stm.Tx) ([]int, error) { return d.PeekFrontN(tx, 2) })
	if err != nil || len(prefix) != 2 || prefix[0] != 3 || prefix[1] != 2 {
		t.Fatalf("PeekFrontN(2) = %v, %v; want [3 2]", prefix, err)
	}
	if err := s.Atomically(d.CheckInvariants); err != nil {
		t.Fatal(err)
	}
	// Drain alternately and check order: front 3,2 back 5,4 front 1.
	for _, step := range []struct {
		front bool
		want  int
	}{{true, 3}, {true, 2}, {false, 5}, {false, 4}, {true, 1}} {
		pop := d.PopFront
		if !step.front {
			pop = d.PopBack
		}
		v, ok, err := stm.Atomic2(s, pop)
		if err != nil || !ok || v != step.want {
			t.Fatalf("pop(front=%v) = %d, %v, %v; want %d", step.front, v, ok, err, step.want)
		}
	}
	if n, _ := stm.Atomic(s, d.Len); n != 0 {
		t.Fatalf("Len after drain = %d, want 0", n)
	}
	if err := s.Atomically(d.CheckInvariants); err != nil {
		t.Fatal(err)
	}
}

// TestDequeModel runs random pushes, pops and peeks at both ends
// against a slice model, holding the length in turn around 0, 1,
// runCap-1, runCap, runCap+1 and 2*runCap so runs fill, split, empty
// and unlink at both ends. After every operation Items, Len and
// CheckInvariants must agree with the model. A transaction that pushes
// and pops several elements and then fails must leave Items as it was.
func TestDequeModel(t *testing.T) {
	s := stm.New()
	d := NewDeque[int]()
	var model []int
	rng := rand.New(rand.NewPCG(1, 2))
	check := func(op string) {
		t.Helper()
		items, err := stm.Atomic(s, d.Items)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(items, model) {
			t.Fatalf("after %s: Items = %v, model %v", op, items, model)
		}
		if n, err := stm.Atomic(s, d.Len); err != nil || n != len(model) {
			t.Fatalf("after %s: Len = %d, %v; model has %d", op, n, err, len(model))
		}
		if err := s.Atomically(d.CheckInvariants); err != nil {
			t.Fatalf("after %s: %v", op, err)
		}
	}
	next := 0
	for _, target := range []int{0, 1, runCap - 1, runCap, runCap + 1, 2 * runCap, 1, 0} {
		for i := 0; i < 40*runCap; i++ {
			// Drift toward target, then wander around it.
			push := rng.IntN(2) == 0
			if len(model) < target {
				push = rng.IntN(4) != 0
			} else if len(model) > target {
				push = rng.IntN(4) == 0
			}
			front := rng.IntN(2) == 0
			var op string
			switch {
			case rng.IntN(5) == 0:
				op = peekModel(t, s, d, model, rng)
			case push:
				next++
				v := next
				op = fmt.Sprintf("push(front=%v, %d)", front, v)
				pushFn := d.PushBack
				if front {
					pushFn = d.PushFront
				}
				if err := s.Atomically(func(tx *stm.Tx) error { return pushFn(tx, v) }); err != nil {
					t.Fatal(err)
				}
				if front {
					model = slices.Insert(model, 0, v)
				} else {
					model = append(model, v)
				}
			default:
				op = fmt.Sprintf("pop(front=%v)", front)
				pop := d.PopBack
				if front {
					pop = d.PopFront
				}
				v, ok, err := stm.Atomic2(s, pop)
				if err != nil {
					t.Fatal(err)
				}
				if ok != (len(model) > 0) {
					t.Fatalf("%s: ok = %v with %d elements", op, ok, len(model))
				}
				if ok {
					want := model[len(model)-1]
					if front {
						want, model = model[0], model[1:]
					} else {
						model = model[:len(model)-1]
					}
					if v != want {
						t.Fatalf("%s = %d, want %d", op, v, want)
					}
				}
			}
			check(op)
		}
	}

	// A failed transaction leaves no trace, however many runs its
	// pushes and pops split and unlinked.
	for i := 0; i < runCap+3; i++ {
		next++
		v := next
		if err := s.Atomically(func(tx *stm.Tx) error { return d.PushBack(tx, v) }); err != nil {
			t.Fatal(err)
		}
		model = append(model, v)
	}
	check("refill")
	errUser := errors.New("user error")
	err := s.Atomically(func(tx *stm.Tx) error {
		for i := 0; i < 2*runCap; i++ {
			if err := d.PushFront(tx, -i); err != nil {
				return err
			}
			if err := d.PushBack(tx, -i); err != nil {
				return err
			}
		}
		for i := 0; i < 3*runCap; i++ {
			if _, _, err := d.PopFront(tx); err != nil {
				return err
			}
			if _, _, err := d.PopBack(tx); err != nil {
				return err
			}
		}
		return errUser
	})
	if !errors.Is(err, errUser) {
		t.Fatalf("Atomically = %v, want the user error", err)
	}
	check("a failed transaction")
}

// peekModel runs one random peek against the deque and the model.
func peekModel(t *testing.T, s *stm.STM, d *Deque[int], model []int, rng *rand.Rand) string {
	t.Helper()
	switch rng.IntN(3) {
	case 0:
		v, ok, err := stm.Atomic2(s, d.PeekFront)
		if err != nil || ok != (len(model) > 0) || ok && v != model[0] {
			t.Fatalf("PeekFront = %d, %v, %v; model %v", v, ok, err, model)
		}
		return "PeekFront"
	case 1:
		v, ok, err := stm.Atomic2(s, d.PeekBack)
		if err != nil || ok != (len(model) > 0) || ok && v != model[len(model)-1] {
			t.Fatalf("PeekBack = %d, %v, %v; model %v", v, ok, err, model)
		}
		return "PeekBack"
	default:
		n := rng.IntN(3*runCap) - 1
		got, err := stm.Atomic(s, func(tx *stm.Tx) ([]int, error) { return d.PeekFrontN(tx, n) })
		want := model[:max(0, min(n, len(model)))]
		if err != nil || !slices.Equal(got, want) {
			t.Fatalf("PeekFrontN(%d) = %v, %v; want %v", n, got, err, want)
		}
		return fmt.Sprintf("PeekFrontN(%d)", n)
	}
}

// TestDequeEndsIndependent pins the push rule: a push never grows the
// run the other end is using. Each round starts from a two-element
// deque (which the rule lays out as two one-element runs) and runs one
// front-pusher against one back-pusher, yielding at every open so
// their transactions overlap. The two ends then read and write
// disjoint Vars, so not one conflict or abort may occur; if a push
// could grow the other end's run, both ends would write the one run
// the two elements share.
func TestDequeEndsIndependent(t *testing.T) {
	s := stm.New(stm.WithInterleavePeriod(1))
	for round := 0; round < 50; round++ {
		d := NewDeque[int]()
		for i := 0; i < 2; i++ {
			if err := s.Atomically(func(tx *stm.Tx) error { return d.PushBack(tx, i) }); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		start := make(chan struct{})
		errs := make([]error, 2)
		for g, push := range []func(*stm.Tx, int) error{d.PushFront, d.PushBack} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < runCap && errs[g] == nil; i++ {
					errs[g] = s.Atomically(func(tx *stm.Tx) error { return push(tx, i) })
				}
			}()
		}
		close(start)
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			t.Fatal(err)
		}
		if err := s.Atomically(d.CheckInvariants); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.TotalStats(); st.Conflicts != 0 || st.Aborts != 0 {
		t.Fatalf("front and back pushers: %d conflicts, %d aborts; want 0 and 0", st.Conflicts, st.Aborts)
	}
}

// TestDequeHammer drives 32 goroutines — 8 per operation (PushFront,
// PushBack, PopFront, PopBack) — through the deque's two end hot
// spots under every registry manager, in both eager and lazy conflict
// modes, checking conservation: every popped value was pushed exactly
// once, the leftovers are exactly the never-popped pushes, and the
// link/counter invariants hold.
//
// Every operation carries the hammers' livelock fuse (errHammerFuse).
// A ≤1-element deque makes front and back operations splice against
// opposite sentinels, so the two ends acquire the boundary Vars in
// opposite orders — an ABBA stand-off that unbounded-patience managers
// (karma, eruption) resolve pathologically slowly under symmetric
// load: each abort adds karma, widening the priority gap the next
// waiter must out-wait. A fused push or pop simply never happened, so
// the conservation checks stay exact (only values whose push committed
// are expected back out).
func TestDequeHammer(t *testing.T) {
	const perOp = 8
	ops := hammerOps(t)
	for _, mode := range []string{"eager", "lazy"} {
		t.Run(mode, func(t *testing.T) {
			for _, mgr := range core.Names() {
				t.Run(mgr, func(t *testing.T) {
					opts := []stm.Option{
						stm.WithManagerFactory(core.MustFactory(mgr)),
						stm.WithInterleavePeriod(4),
					}
					if mode == "lazy" {
						opts = append(opts, stm.WithLazyConflicts())
					}
					s := stm.New(opts...)
					d := NewDeque[int]()
					var mu sync.Mutex
					pushed := make(map[int]bool)
					popped := make(map[int]int)
					var wg sync.WaitGroup
					errs := make([]error, 4*perOp)
					for g := 0; g < 4*perOp; g++ {
						wg.Add(1)
						go func(g int) {
							defer wg.Done()
							for i := 0; i < ops; i++ {
								val := g*1_000_000 + i
								var err error
								fuse := newFuse()
								switch g / perOp {
								case 0, 1:
									push := d.PushFront
									if g/perOp == 1 {
										push = d.PushBack
									}
									err = s.Atomically(func(tx *stm.Tx) error {
										if err := fuse(); err != nil {
											return err
										}
										return push(tx, val)
									})
									if err == nil {
										mu.Lock()
										pushed[val] = true
										mu.Unlock()
									}
								default:
									pop := d.PopFront
									if g/perOp == 3 {
										pop = d.PopBack
									}
									var v int
									var ok bool
									v, ok, err = stm.Atomic2(s, func(tx *stm.Tx) (int, bool, error) {
										if err := fuse(); err != nil {
											return 0, false, err
										}
										return pop(tx)
									})
									if err == nil && ok {
										mu.Lock()
										popped[v]++
										mu.Unlock()
									}
								}
								if err != nil && !errors.Is(err, errHammerFuse) {
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
					if err := s.Atomically(d.CheckInvariants); err != nil {
						t.Fatal(err)
					}
					left, err := stm.Atomic(s, d.Items)
					if err != nil {
						t.Fatal(err)
					}
					seen := make(map[int]int, len(popped)+len(left))
					for v, n := range popped {
						if n != 1 {
							t.Fatalf("value %d popped %d times", v, n)
						}
						seen[v]++
					}
					for _, v := range left {
						seen[v]++
					}
					if len(seen) != len(pushed) {
						t.Fatalf("pushed %d distinct values, accounted for %d", len(pushed), len(seen))
					}
					for v, n := range seen {
						if n != 1 {
							t.Fatalf("value %d accounted %d times", v, n)
						}
						if !pushed[v] {
							t.Fatalf("value %d was never pushed", v)
						}
					}
				})
			}
		})
	}
}

// TestDequeBoundedHeap cycles push-back/pop-front pairs through a
// deque held at 64 elements and requires the live heap to stay flat. A
// link variable's committed value is the neighbouring run, so anything
// in the engine that keeps a superseded version of a link reachable —
// a committed locator holding on to its pre-image, an initial locator
// co-allocated with its Var — pins the run that was the neighbour at
// that moment, which pins its own neighbour of the time, and so on:
// every popped run, forever. This is the guard on the locator's
// pre-image release and on stm.NewVar's co-allocation rule. A popped
// element itself may stay reachable from its run's array until the run
// is copied by a push or unlinked, but that is at most runCap elements
// per end, not a growing amount.
func TestDequeBoundedHeap(t *testing.T) {
	pairs := 1_000_000
	if testing.Short() {
		pairs = 100_000
	}
	s := stm.New()
	d := NewDeque[int]()
	for i := 0; i < 64; i++ {
		if err := s.Atomically(func(tx *stm.Tx) error { return d.PushBack(tx, i) }); err != nil {
			t.Fatal(err)
		}
	}
	live := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	run := func(n int) {
		for i := 0; i < n; i++ {
			if err := s.Atomically(func(tx *stm.Tx) error { return d.PushBack(tx, i) }); err != nil {
				t.Fatal(err)
			}
			if _, _, err := stm.Atomic2(s, d.PopFront); err != nil {
				t.Fatal(err)
			}
		}
	}
	run(pairs / 10)
	before := live()
	run(pairs - pairs/10)
	after := live()
	// A pinned run is a few hundred bytes per runCap pairs: a leak of
	// one per run is megabytes even in -short.
	const slack = 1 << 20
	if after > before+slack {
		t.Fatalf("live heap grew %d B over %d push/pop pairs on a 64-element deque", after-before, pairs-pairs/10)
	}
	if n, err := stm.Atomic(s, d.Len); err != nil || n != 64 {
		t.Fatalf("Len = %d, %v; want 64", n, err)
	}
}
