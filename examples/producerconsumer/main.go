// Producer/consumer: N producers feed a transactional FIFO (a
// container.Deque pushed at the back and popped at the front), M
// consumers drain it, and the run verifies exactly-once delivery in
// FIFO order.
//
// The deque's two end runs are permanent hot spots — every
// producer conflicts with every producer, every consumer with every
// consumer — so the contention manager is on the critical path of
// every operation. The invariants checked at the end (and the exit
// status) are:
//
//   - conservation: every produced item is consumed exactly once, and
//     nothing else is consumed;
//   - per-producer FIFO: for any single producer, consumers observe
//     that producer's items in production order (a property single
//     global serialization of pushes and pops must preserve).
//
// Run it with different managers to compare how they handle the
// symmetric hot-spot load:
//
//	go run ./examples/producerconsumer -manager greedy
//	go run ./examples/producerconsumer -producers 8 -consumers 2 -manager karma
package main

import (
	"flag"
	"fmt"
	"log"
	"sync"
	"time"

	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/stm"
)

// item is one produced value: which producer made it, and its
// per-producer sequence number.
type item struct {
	producer int
	seq      int
}

func main() {
	var (
		manager   = flag.String("manager", "greedy", "contention manager")
		producers = flag.Int("producers", 4, "producer goroutines")
		consumers = flag.Int("consumers", 4, "consumer goroutines")
		items     = flag.Int("items", 2000, "items produced per producer")
	)
	flag.Parse()

	factory, err := core.Factory(*manager)
	if err != nil {
		log.Fatal(err)
	}
	world := stm.New(stm.WithManagerFactory(factory))
	queue := container.NewDeque[item]()

	start := time.Now()
	var wg sync.WaitGroup
	for p := 0; p < *producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for seq := 0; seq < *items; seq++ {
				err := world.Atomically(func(tx *stm.Tx) error {
					return queue.PushBack(tx, item{producer: p, seq: seq})
				})
				if err != nil {
					log.Fatalf("produce: %v", err)
				}
			}
		}(p)
	}

	// Consumers drain until they have collectively consumed everything:
	// an empty pop is a committed no-op, retried until the total is
	// reached (producers may still be running).
	total := *producers * *items
	var mu sync.Mutex
	consumed := 0
	got := make([][]item, *consumers)
	for c := 0; c < *consumers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				mu.Lock()
				if consumed >= total {
					mu.Unlock()
					return
				}
				mu.Unlock()
				v, ok, err := stm.Atomic2(world, queue.PopFront)
				if err != nil {
					log.Fatalf("consume: %v", err)
				}
				if !ok {
					continue
				}
				mu.Lock()
				consumed++
				got[c] = append(got[c], v)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	// Invariant 1: conservation — every (producer, seq) pair exactly
	// once, and nothing else.
	seen := make(map[item]int)
	for _, batch := range got {
		for _, v := range batch {
			seen[v]++
		}
	}
	violations := 0
	if len(seen) != total {
		log.Printf("INVARIANT VIOLATED: consumed %d distinct items, want %d", len(seen), total)
		violations++
	}
	for v, n := range seen {
		if n != 1 {
			log.Printf("INVARIANT VIOLATED: item %+v consumed %d times", v, n)
			violations++
		}
		if v.producer < 0 || v.producer >= *producers || v.seq < 0 || v.seq >= *items {
			log.Printf("INVARIANT VIOLATED: phantom item %+v", v)
			violations++
		}
	}

	// Invariant 2: per-producer FIFO — within one consumer's stream,
	// each producer's sequence numbers must be increasing; and because
	// pops are serialized transactions, stitching the consumer
	// streams by pop order would likewise be increasing. The
	// per-consumer check is the strongest one expressible without
	// recording global pop order, and it catches any reordering a
	// broken queue produces within a stream.
	for c, batch := range got {
		last := make(map[int]int)
		for _, v := range batch {
			if prev, ok := last[v.producer]; ok && v.seq <= prev {
				log.Printf("INVARIANT VIOLATED: consumer %d saw producer %d seq %d after %d", c, v.producer, v.seq, prev)
				violations++
			}
			last[v.producer] = v.seq
		}
	}

	// The queue must be empty now.
	left, err := stm.Atomic(world, queue.Len)
	if err != nil {
		log.Fatalf("final len: %v", err)
	}
	if left != 0 {
		log.Printf("INVARIANT VIOLATED: %d items still queued after full drain", left)
		violations++
	}

	stats := world.TotalStats()
	fmt.Printf("manager=%s producers=%d consumers=%d items=%d elapsed=%v\n",
		*manager, *producers, *consumers, total, elapsed.Round(time.Millisecond))
	fmt.Printf("commits=%d aborts=%d conflicts=%d abort-rate=%.2f%%\n",
		stats.Commits, stats.Aborts, stats.Conflicts, 100*stats.AbortRate())
	if violations > 0 {
		log.Fatalf("%d invariant violations", violations)
	}
	fmt.Println("every item delivered exactly once, in per-producer FIFO order.")
}
