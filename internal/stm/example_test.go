package stm_test

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/stm"
)

// greedyLike is a tiny stand-in manager for the examples (the real
// managers live in internal/core and would import-cycle here).
type greedyLike struct{ stm.BaseManager }

func (greedyLike) ResolveConflict(me, enemy stm.Contender) (stm.Decision, time.Duration) {
	if enemy.Timestamp() > me.Timestamp() || enemy.Waiting() {
		return stm.AbortOther, 0
	}
	return stm.Wait, 0
}

// The API in one screen: configure the STM with a manager factory
// once, then call Atomically from any goroutine — each transaction runs
// on a pooled session with its own manager instance.
func ExampleSTM_Atomically() {
	world := stm.New(stm.WithManagerFactory(func() stm.Manager { return greedyLike{} }))
	counter := stm.NewVar(0)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if err := world.Atomically(func(tx *stm.Tx) error {
					return stm.Update(tx, counter, func(v int) int { return v + 1 })
				}); err != nil {
					panic(err)
				}
			}
		}()
	}
	wg.Wait()
	fmt.Println("counter:", counter.Peek())
	// Output: counter: 100
}

// Atomic is the entry point for transactions that compute a
// value; Snapshot is its packaged multi-variable read.
func ExampleAtomic() {
	world := stm.New()
	a := stm.NewVar(3)
	b := stm.NewVar(4)

	sum, err := stm.Atomic(world, func(tx *stm.Tx) (int, error) {
		av, err := stm.Read(tx, a)
		if err != nil {
			return 0, err
		}
		bv, err := stm.Read(tx, b)
		if err != nil {
			return 0, err
		}
		return av + bv, nil
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("sum:", sum)
	// Output: sum: 7
}

// Snapshot reads many variables at one serialization point — the
// auditor's tool: no interleaved writer commit can be observed
// half-applied.
func ExampleSnapshot() {
	world := stm.New()
	accounts := []*stm.Var[int]{stm.NewVar(10), stm.NewVar(20), stm.NewVar(30)}

	balances, err := stm.Snapshot(world, accounts...)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	total := 0
	for _, b := range balances {
		total += b
	}
	fmt.Println("balances:", balances, "total:", total)
	// Output: balances: [10 20 30] total: 60
}

// UpdateErr is the fallible read-modify-write: the transition may read
// other variables and may refuse, in which case the transaction aborts
// once and the error surfaces unchanged.
func ExampleUpdateErr() {
	world := stm.New()
	balance := stm.NewVar(100)
	limit := stm.NewVar(0) // no overdraft

	err := world.Atomically(func(tx *stm.Tx) error {
		return stm.UpdateErr(tx, balance, func(bal int) (int, error) {
			lim, err := stm.Read(tx, limit)
			if err != nil {
				return 0, err
			}
			if bal-150 < -lim {
				return 0, fmt.Errorf("insufficient funds: have %d, want 150", bal)
			}
			return bal - 150, nil
		})
	})
	fmt.Println("err:", err)
	fmt.Println("balance:", balance.Peek())
	// Output:
	// err: insufficient funds: have 100, want 150
	// balance: 100
}

func ExampleRead() {
	world := stm.New()
	a := stm.NewVar(3)
	b := stm.NewVar(4)

	var sum int
	err := world.Atomically(func(tx *stm.Tx) error {
		av, err := stm.Read(tx, a)
		if err != nil {
			return err
		}
		bv, err := stm.Read(tx, b)
		if err != nil {
			return err
		}
		// The two reads are a consistent snapshot: if a writer commits
		// between them, validation aborts and retries this function.
		sum = av + bv
		return nil
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("sum:", sum)
	// Output: sum: 7
}

func ExampleWrite() {
	world := stm.New()
	greeting := stm.NewVar("hello")

	err := world.Atomically(func(tx *stm.Tx) error {
		old, err := stm.Read(tx, greeting)
		if err != nil {
			return err
		}
		return stm.Write(tx, greeting, old+", world")
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(greeting.Peek())
	// Output: hello, world
}

// Var values compose: a payload may hold handles to other Vars, which
// are immutable and safe to share between versions. Here a two-cell
// list is rewired transactionally.
func ExampleNewVar() {
	type cell struct {
		value int
		next  *stm.Var[cell] // nil at the tail
	}
	world := stm.New()
	second := stm.NewVar(cell{value: 2})
	first := stm.NewVar(cell{value: 1, next: second})

	err := world.Atomically(func(tx *stm.Tx) error {
		// Splice a new cell between first and second.
		return stm.Update(tx, first, func(c cell) cell {
			c.next = stm.NewVar(cell{value: 99, next: c.next})
			return c
		})
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("first:", first.Peek().value)
	fmt.Println("spliced:", first.Peek().next.Peek().value)
	// Output:
	// first: 1
	// spliced: 99
}

// NewVarCloner installs a deep-copy strategy for payloads with mutable
// indirect state, so a writer's in-place mutations stay private until
// commit.
func ExampleNewVarCloner() {
	world := stm.New()
	scores := stm.NewVarCloner([]int{1, 2, 3}, func(s []int) []int {
		c := make([]int, len(s))
		copy(c, s)
		return c
	})

	err := world.Atomically(func(tx *stm.Tx) error {
		return stm.Update(tx, scores, func(s []int) []int {
			s[0] = 10 // mutates the private deep copy, not the committed slice
			return s
		})
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("scores:", scores.Peek())
	// Output: scores: [10 2 3]
}

func ExampleWithLazyConflicts() {
	// Commit-time conflict detection: transactions are invisible to
	// one another until they commit, and the contention manager is
	// never consulted (the STM design the paper's Section 6 contrasts
	// with contention management). The typed API is detection-mode
	// agnostic.
	world := stm.New(stm.WithLazyConflicts())
	counter := stm.NewVar(0)

	for i := 0; i < 3; i++ {
		if err := world.Atomically(func(tx *stm.Tx) error {
			return stm.Update(tx, counter, func(v int) int { return v + 1 })
		}); err != nil {
			fmt.Println("error:", err)
			return
		}
	}
	fmt.Println("counter:", counter.Peek())
	// Output: counter: 3
}
