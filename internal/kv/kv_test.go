package kv

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/stm"
)

// fakeClock is a hand-advanced monotonic time source for deterministic
// expiry tests.
type fakeClock struct {
	t atomic.Int64
}

func (c *fakeClock) now() int64              { return c.t.Load() }
func (c *fakeClock) advance(d time.Duration) { c.t.Add(int64(d)) }

// withBuckets sets each shard's initial bucket count in place of New's
// 8: one or two buckets drive the resize path from the first inserts,
// a large count keeps a benchmark's table still.
func withBuckets(n int) Option {
	return func(c *config) { c.buckets = n }
}

// withSlowlog replaces the server's slow-command ring: commands that
// ran for at least threshold are kept, the newest size of them. Zero
// records every command, a negative threshold none.
func withSlowlog(threshold time.Duration, size int) ServerOption {
	return func(srv *Server) {
		srv.slow = &slowlog{threshold: threshold, ring: newRing[slowEntry](size)}
	}
}

// do runs fn as one Store.Atomically transaction and returns its
// result: how tests call a *Tx form on its own.
func do[T any](st *Store, fn func(tx *stm.Tx, now int64) (T, error)) (T, error) {
	var out T
	err := st.Atomically(func(tx *stm.Tx, now int64) (err error) {
		out, err = fn(tx, now)
		return err
	})
	return out, err
}

// TestStoreBasicOps exercises the single-client contract of every
// typed operation.
func TestStoreBasicOps(t *testing.T) {
	st := New(stm.New())
	if _, ok, err := st.Get("missing"); err != nil || ok {
		t.Fatalf("Get(missing) = ok=%v, err=%v; want false, nil", ok, err)
	}
	if err := st.Set("a", "1"); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := st.Get("a"); err != nil || !ok || v != "1" {
		t.Fatalf("Get(a) = %q, %v, %v; want \"1\", true, nil", v, ok, err)
	}
	if n, err := st.Incr("a", 41); err != nil || n != 42 {
		t.Fatalf("Incr(a, 41) = %d, %v; want 42, nil", n, err)
	}
	if n, err := st.Incr("fresh", -2); err != nil || n != -2 {
		t.Fatalf("Incr(fresh, -2) = %d, %v; want -2, nil", n, err)
	}
	if err := st.Set("text", "nope"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Incr("text", 1); !errors.Is(err, ErrNotInteger) {
		t.Fatalf("Incr on non-integer = %v; want ErrNotInteger", err)
	}
	if err := st.MSet(KV{"x", "10"}, KV{"y", "20"}, KV{"z", "30"}); err != nil {
		t.Fatal(err)
	}
	vals, present, err := st.MGet("x", "nope", "z")
	if err != nil {
		t.Fatal(err)
	}
	if !present[0] || present[1] || !present[2] || vals[0] != "10" || vals[2] != "30" {
		t.Fatalf("MGet = %v, %v", vals, present)
	}
	if n, err := st.Del("x", "nope", "y"); err != nil || n != 2 {
		t.Fatalf("Del = %d, %v; want 2, nil", n, err)
	}
	if n, err := do(st, st.lenTx); err != nil || n != 4 { // a, fresh, text, z
		t.Fatalf("Len = %d, %v; want 4, nil", n, err)
	}
	keys, err := do(st, func(tx *stm.Tx, now int64) (keys []string, err error) {
		return keys, st.eachLive(tx, now, func(key string, _ entry) error { keys = append(keys, key); return nil })
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(keys)
	if want := []string{"a", "fresh", "text", "z"}; fmt.Sprint(keys) != fmt.Sprint(want) {
		t.Fatalf("Keys = %v; want %v", keys, want)
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestStoreSurface pins the exported *Store methods that take no
// *stm.Tx. A data operation belongs in a *Tx form composed under
// Atomically (ROADMAP 10(b)): any method missing from this list without
// a *stm.Tx parameter should be one. The eight one-shot forms remain
// only because bench/ calls them (ROADMAP 1(e)); the rest is plumbing —
// engine, clock, persistence, sweeping and audit hooks.
func TestStoreSurface(t *testing.T) {
	want := []string{
		"Del", "Get", "Incr", "MGet", "MSet", "RPush", "Set", "SetTTL",
		"Apply", "Atomically", "AttachWAL", "BucketsPerShard", "CheckInvariants", "Durable",
		"Now", "PeekLen", "STM", "Save", "SaveStats", "Shards", "SnapshotOps", "Sweep", "SweepShard", "WAL",
	}
	txType := reflect.TypeOf((*stm.Tx)(nil))
	typ := reflect.TypeOf((*Store)(nil))
	var got []string
	for i := range typ.NumMethod() {
		m := typ.Method(i)
		takesTx := false
		for j := range m.Type.NumIn() {
			takesTx = takesTx || m.Type.In(j) == txType
		}
		if !takesTx {
			got = append(got, m.Name)
		}
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("*Store methods without a *stm.Tx parameter:\n got  %v\n want %v", got, want)
	}
}

// TestStoreExpiry pins the TTL contract on a hand-advanced clock: TTL
// readouts, lazy reads of dead entries, Redis-style TTL clearing on
// SET, TTL preservation across INCR, and EXPIRE with a non-positive
// TTL acting as DEL.
func TestStoreExpiry(t *testing.T) {
	var ok bool
	var clk fakeClock
	st := New(stm.New(), WithClock(clk.now))
	if err := st.SetTTL("k", "v", 100*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if ttl, err := do(st, func(tx *stm.Tx, now int64) (v time.Duration, err error) { v, ok, err = st.TTLTx(tx, now, "k"); return }); err != nil || !ok || ttl != 100*time.Millisecond {
		t.Fatalf("TTL = %v, %v, %v; want 100ms, true, nil", ttl, ok, err)
	}
	clk.advance(60 * time.Millisecond)
	if ttl, _ := do(st, func(tx *stm.Tx, now int64) (v time.Duration, err error) { v, ok, err = st.TTLTx(tx, now, "k"); return }); !ok || ttl != 40*time.Millisecond {
		t.Fatalf("TTL after 60ms = %v, %v; want 40ms, true", ttl, ok)
	}
	clk.advance(40 * time.Millisecond)
	if _, ok, _ := st.Get("k"); ok {
		t.Fatal("expired key still readable")
	}
	if _, _ = do(st, func(tx *stm.Tx, now int64) (v time.Duration, err error) { v, ok, err = st.TTLTx(tx, now, "k"); return }); ok {
		t.Fatal("expired key still has TTL")
	}
	// SET clears TTL; INCR preserves it.
	if err := st.SetTTL("n", "5", time.Second); err != nil {
		t.Fatal(err)
	}
	if err := st.Set("n", "5"); err != nil {
		t.Fatal(err)
	}
	if ttl, _ := do(st, func(tx *stm.Tx, now int64) (v time.Duration, err error) { v, ok, err = st.TTLTx(tx, now, "n"); return }); !ok || ttl != NoTTL {
		t.Fatalf("TTL after plain SET = %v, %v; want NoTTL, true", ttl, ok)
	}
	if _, err := do(st, func(tx *stm.Tx, now int64) (bool, error) { return st.ExpireTx(tx, now, "n", time.Second) }); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Incr("n", 1); err != nil {
		t.Fatal(err)
	}
	if ttl, _ := do(st, func(tx *stm.Tx, now int64) (v time.Duration, err error) { v, ok, err = st.TTLTx(tx, now, "n"); return }); !ok || ttl != time.Second {
		t.Fatalf("TTL after INCR = %v, %v; want 1s, true", ttl, ok)
	}
	// EXPIRE with non-positive TTL deletes.
	if ok, err := do(st, func(tx *stm.Tx, now int64) (bool, error) { return st.ExpireTx(tx, now, "n", 0) }); err != nil || !ok {
		t.Fatalf("Expire(n, 0) = %v, %v; want true, nil", ok, err)
	}
	if _, ok, _ := st.Get("n"); ok {
		t.Fatal("key survived EXPIRE 0")
	}
	// EXPIRE on a missing key reports false.
	if ok, err := do(st, func(tx *stm.Tx, now int64) (bool, error) { return st.ExpireTx(tx, now, "ghost", time.Second) }); err != nil || ok {
		t.Fatalf("Expire(ghost) = %v, %v; want false, nil", ok, err)
	}
}

// TestStoreExpiryMonotonic is the monotonicity contract: a key is
// readable exactly until the clock reaches its expiry, and once it has
// been observed expired no later read sees it alive (without an
// intervening write). The clock is hand-advanced in steps; after each
// step every key is probed concurrently and must read as alive iff its
// deadline is still ahead — deterministic on any host, since the clock
// only moves between probe rounds.
func TestStoreExpiryMonotonic(t *testing.T) {
	var clk fakeClock
	st := New(stm.New(), WithClock(clk.now))
	const keys = 16
	const step = 10 * time.Millisecond
	for i := 0; i < keys; i++ {
		if err := st.SetTTL(fmt.Sprintf("k%d", i), "v", time.Duration(i+1)*step); err != nil {
			t.Fatal(err)
		}
	}
	for round := 1; round <= keys+1; round++ {
		clk.advance(step)
		var wg sync.WaitGroup
		errs := make([]error, keys)
		for i := 0; i < keys; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				key := fmt.Sprintf("k%d", i)
				_, ok, err := st.Get(key)
				if err != nil {
					errs[i] = err
					return
				}
				alive := i+1 > round // deadline (i+1)*step vs clock round*step
				if ok != alive {
					errs[i] = fmt.Errorf("round %d: Get(%s) alive=%v, want %v", round, key, ok, alive)
				}
			}(i)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	// Sweep reaps everything that died; the store ends empty.
	removed, err := st.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if removed != keys {
		t.Fatalf("Sweep removed %d, want %d", removed, keys)
	}
	if n, err := do(st, st.lenTx); err != nil || n != 0 {
		t.Fatalf("Len after sweep = %d, %v; want 0, nil", n, err)
	}
	if removed, err := st.Sweep(); err != nil || removed != 0 {
		t.Fatalf("second Sweep removed %d, %v; want 0, nil", removed, err)
	}
}

// hammerOps trims the per-goroutine operation count under -short so
// the full manager sweep stays fast in CI's race run.
func hammerOps(t *testing.T) int {
	if testing.Short() {
		return 40
	}
	return 150
}

// TestStoreResizeUnderMutators races shard resizes against 32
// goroutines mutating concurrently: tiny initial bucket arrays, every
// writer inserting a disjoint key range with interleaved deletes, so
// the Sets that find a chain too long resize their shard against
// everyone else's traffic. Transactional resize must preserve every
// live key.
func TestStoreResizeUnderMutators(t *testing.T) {
	const writers = 32
	perWriter := hammerOps(t)
	s := stm.New(stm.WithManagerFactory(core.MustFactory("greedy")), stm.WithInterleavePeriod(4))
	st := New(s, WithShards(4), withBuckets(1))
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				key := fmt.Sprintf("w%d:%d", g, i)
				if err := st.Set(key, strconv.Itoa(i)); err != nil {
					errs[g] = err
					return
				}
				if i%5 == 4 { // delete a fifth of our own keys
					if _, err := st.Del(fmt.Sprintf("w%d:%d", g, i-2)); err != nil {
						errs[g] = err
						return
					}
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
	grew := false
	for _, b := range st.BucketsPerShard() {
		if b > 1 {
			grew = true
		}
	}
	if !grew {
		t.Fatal("no shard ever grew")
	}
	deleted := perWriter / 5
	want := writers * (perWriter - deleted)
	n, err := do(st, st.lenTx)
	if err != nil {
		t.Fatal(err)
	}
	if n != want {
		t.Fatalf("Len after resize storm = %d, want %d", n, want)
	}
	for g := 0; g < writers; g++ { // spot-check survivors' values
		key := fmt.Sprintf("w%d:%d", g, perWriter-1)
		v, ok, err := st.Get(key)
		if err != nil || !ok || v != strconv.Itoa(perWriter-1) {
			t.Fatalf("Get(%s) = %q, %v, %v", key, v, ok, err)
		}
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// opensPerCommit runs fn and returns how many transactions it committed
// on st's engine and how many variables they opened per commit.
func opensPerCommit(t *testing.T, st *Store, fn func()) (commits int64, opens float64) {
	t.Helper()
	before := st.STM().TotalStats()
	fn()
	after := st.STM().TotalStats()
	commits = after.Commits - before.Commits
	return commits, float64(after.Opens-before.Opens) / float64(commits)
}

// TestStoreOverwriteCostsNoMaintenance is the hot-key regression: 8 000
// keys in one shard of 4 096 buckets put hundreds of keys in chains
// longer than seven, and overwriting a key must cost one transaction
// of at most four opens however long its chain. (A store that reacts
// to long chains on every write — recounting the shard to find out
// that it need not grow — fails both counts.)
func TestStoreOverwriteCostsNoMaintenance(t *testing.T) {
	const keys, rounds = 8_000, 10_000
	st := New(stm.New(), WithShards(1), withBuckets(4096))
	names := make([]string, keys)
	for i := range names {
		names[i] = fmt.Sprintf("key:%d", i)
		if err := st.Set(names[i], "0"); err != nil {
			t.Fatal(err)
		}
	}
	commits, opens := opensPerCommit(t, st, func() {
		for i := 0; i < rounds; i++ {
			if err := st.Set(names[i%keys], "1"); err != nil {
				t.Fatal(err)
			}
		}
	})
	if commits != rounds {
		t.Fatalf("%d overwrites took %d commits", rounds, commits)
	}
	if opens > 4 {
		t.Fatalf("overwrites opened %.2f variables per commit, want <= 4", opens)
	}
}

// TestStorePreloadOpens is the preload regression: filling a default
// store, resizes included, averages at most four opens per SET and
// leaves the structure sound.
func TestStorePreloadOpens(t *testing.T) {
	keys := 200_000
	if testing.Short() {
		keys = 40_000
	}
	st := New(stm.New())
	commits, opens := opensPerCommit(t, st, func() {
		for i := 0; i < keys; i++ {
			if err := st.Set(fmt.Sprintf("key:%d", i), "v"); err != nil {
				t.Fatal(err)
			}
		}
	})
	if commits != int64(keys) {
		t.Fatalf("%d SETs took %d commits", keys, commits)
	}
	if opens > 4 {
		t.Fatalf("preload opened %.2f variables per commit, want <= 4", opens)
	}
	total := 0
	for _, b := range st.BucketsPerShard() {
		total += b
	}
	t.Logf("%d keys: %.2f opens/commit, %d buckets", keys, opens, total)
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// errFuseBlew is the livelock fuse for the transfer hammer: a manager
// whose policy can ping-pong aborts forever under symmetric load
// (aggressive, notably) gives up a transfer after a bounded number of
// attempts instead of hanging the test. A fused transfer simply never
// happened — conservation still holds — so the invariant checks stay
// exact; the fuse only bounds wall time.
var errFuseBlew = errors.New("kv hammer: livelock fuse blew")

// TestStoreTransferHammer is the MULTI/EXEC atomicity contract under
// every registry contention manager: movers transfer value between
// string keys in single transactions (the EXEC replay shape) while
// auditors take consistent MGet snapshots and assert conservation.
// Runs under -race in CI.
func TestStoreTransferHammer(t *testing.T) {
	const (
		accounts = 8
		movers   = 8
		auditors = 2
		initial  = 1000
	)
	ops := hammerOps(t)
	keys := make([]string, accounts)
	for i := range keys {
		keys[i] = fmt.Sprintf("acct:%d", i)
	}
	for _, mgr := range core.Names() {
		t.Run(mgr, func(t *testing.T) {
			s := stm.New(stm.WithManagerFactory(core.MustFactory(mgr)), stm.WithInterleavePeriod(4))
			st := New(s, WithShards(4), withBuckets(2))
			for _, k := range keys {
				if err := st.Set(k, strconv.Itoa(initial)); err != nil {
					t.Fatal(err)
				}
			}
			var wg sync.WaitGroup
			errs := make([]error, movers+auditors)
			for g := 0; g < movers; g++ {
				rng := rand.New(rand.NewPCG(uint64(g)+1, 7))
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < ops; i++ {
						from := keys[rng.Int64N(accounts)]
						to := keys[rng.Int64N(accounts)]
						amount := rng.Int64N(20) + 1
						// One transaction: the MULTI/EXEC replay shape —
						// INCRBY from -amount; INCRBY to amount.
						attempts := 0
						err := st.Atomically(func(tx *stm.Tx, now int64) error {
							//stm:impure(livelock fuse: the cross-retry attempt count is what bounds the ping-pong)
							if attempts++; attempts > 2000 {
								return errFuseBlew
							}
							if _, err := st.IncrTx(tx, now, from, -amount); err != nil {
								return err
							}
							_, err := st.IncrTx(tx, now, to, amount)
							return err
						})
						if err != nil && !errors.Is(err, errFuseBlew) {
							errs[g] = err
							return
						}
					}
				}(g)
			}
			for a := 0; a < auditors; a++ {
				wg.Add(1)
				go func(a int) {
					defer wg.Done()
					for i := 0; i < ops/4; i++ {
						now := st.Now()
						var vals []string
						var present []bool
						attempts := 0
						err := st.s.Atomically(func(tx *stm.Tx) error {
							//stm:impure(livelock fuse: the cross-retry attempt count is what bounds the ping-pong)
							if attempts++; attempts > 2000 {
								return errFuseBlew
							}
							vals = make([]string, len(keys))
							present = make([]bool, len(keys))
							for i, key := range keys {
								v, ok, err := st.GetTx(tx, now, key)
								if err != nil {
									return err
								}
								vals[i], present[i] = v, ok
							}
							return nil
						})
						if errors.Is(err, errFuseBlew) {
							continue // audit round skipped, not wrong
						}
						if err != nil {
							errs[movers+a] = err
							return
						}
						sum := int64(0)
						for i, v := range vals {
							if !present[i] {
								errs[movers+a] = fmt.Errorf("account %s vanished", keys[i])
								return
							}
							n, err := strconv.ParseInt(v, 10, 64)
							if err != nil {
								errs[movers+a] = err
								return
							}
							sum += n
						}
						if sum != accounts*initial {
							errs[movers+a] = fmt.Errorf("conservation broken: sum %d, want %d", sum, accounts*initial)
							return
						}
					}
				}(a)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			// Quiesced total must also balance.
			vals, _, err := st.MGet(keys...)
			if err != nil {
				t.Fatal(err)
			}
			sum := int64(0)
			for _, v := range vals {
				n, _ := strconv.ParseInt(v, 10, 64)
				sum += n
			}
			if sum != accounts*initial {
				t.Fatalf("final sum %d, want %d", sum, accounts*initial)
			}
			if err := st.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestWrapperAllocParity is the enforceable form of the claim that
// deriving the Store wrappers from their *Tx forms through view and
// update is free: a wrapper may not allocate more than the hand-written
// transaction it replaced (the closures must stay on the stack).
func TestWrapperAllocParity(t *testing.T) {
	st := New(stm.New())
	if err := st.MSet(KV{"k", "v"}, KV{"n", "1"}); err != nil {
		t.Fatal(err)
	}
	allocs := func(fn func() error) float64 {
		return testing.AllocsPerRun(500, func() {
			if err := fn(); err != nil {
				t.Fatal(err)
			}
		})
	}
	viaView := allocs(func() error { _, _, err := st.Get("k"); return err })
	byHand := allocs(func() error {
		now := st.Now()
		_, _, err := stm.Atomic2(st.s, func(tx *stm.Tx) (string, bool, error) { return st.GetTx(tx, now, "k") })
		return err
	})
	if viaView > byHand {
		t.Errorf("Get through view: %.1f allocs, hand-written transaction: %.1f", viaView, byHand)
	}
	viaUpdate := allocs(func() error { _, err := st.Incr("n", 1); return err })
	byHand = allocs(func() error {
		var n int64
		err := st.Atomically(func(tx *stm.Tx, now int64) (err error) {
			n, err = st.IncrTx(tx, now, "n", 1)
			return err
		})
		_ = n
		return err
	})
	if viaUpdate > byHand {
		t.Errorf("Incr through update: %.1f allocs, hand-written transaction: %.1f", viaUpdate, byHand)
	}
}

// TestIncrAllocBudget pins one IncrTx transaction on an existing key
// to its absolute allocation count — the engine's two for a one-write
// transaction (descriptor, and one cell holding the locator and the
// version; see stm.TestAttemptAllocBudget) plus the formatted value —
// so the attempt-path budget is seen to hold through the store's
// layers.
func TestIncrAllocBudget(t *testing.T) {
	st := New(stm.New())
	if err := st.Set("n", "1"); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(500, func() {
		if err := st.Atomically(func(tx *stm.Tx, now int64) error {
			_, err := st.IncrTx(tx, now, "n", 1)
			return err
		}); err != nil {
			t.Fatal(err)
		}
	})
	if got != 3 {
		t.Errorf("IncrTx transaction: %.1f allocs, want 3", got)
	}
}

// TestDurableSetAllocBudget pins one durable SET — Store.commit, then
// the wait for its record — against the same SET on a memory-only
// store: the log adds no allocation of its own (the capture and its
// commit hook are pooled, the ticket is a value, the record is framed
// into the log's buffer, the waiter parks on a sync.Cond).
func TestDurableSetAllocBudget(t *testing.T) {
	set := func(st *Store) float64 {
		return testing.AllocsPerRun(200, func() {
			p, err := st.commit(func(tx *stm.Tx, now int64) error { return st.SetTx(tx, now, "k", "v", 0) })
			if err == nil {
				err = p.wait()
			}
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	memory := set(New(stm.New()))
	durable := New(stm.New())
	l := openTestWAL(t, t.TempDir())
	defer l.Close()
	durable.AttachWAL(l)
	if got := set(durable); got != memory || got != 3 {
		t.Errorf("durable SET: %.1f allocs, memory-only %.1f, want 3 and 3", got, memory)
	}
}
