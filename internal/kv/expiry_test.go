package kv

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/stm"
	"repro/internal/wal"
)

// keyIn returns the first of name:0, name:1, … that hashes to shard i.
func keyIn(st *Store, i int, name string) string {
	for n := 0; ; n++ {
		if k := fmt.Sprintf("%s:%d", name, n); st.shardIndex(k) == i {
			return k
		}
	}
}

// armed snapshots every shard's expiring flag.
func armed(st *Store) []bool {
	out := make([]bool, len(st.expiring))
	for i, f := range st.expiring {
		out[i] = f.Peek()
	}
	return out
}

// TestSweepSkipsShardsWithoutDeadlines walks the expiring flag through
// its life on an injected clock and a WAL: a shard nothing with a TTL
// was written to is swept in one read and logs nothing; a deadline arms
// only its own shard, by SET PX or by EXPIRE; the sweep that reaps the
// last deadline logs its tombstone and clears the flag; a plain SET
// over a TTL key leaves the flag to the next sweep; and recovery arms
// the shard of a TTL key it replays.
//
// A sweep of a TTL-free shard must stay one read: reading the shard's
// buckets first would put a whole-shard read set back on every tick,
// which every writer's commit invalidates.
func TestSweepSkipsShardsWithoutDeadlines(t *testing.T) {
	dir := t.TempDir()
	var clk fakeClock
	clk.advance(time.Second)
	st := New(stm.New(), WithShards(4), withBuckets(2), WithClock(clk.now))
	l := openTestWAL(t, dir)
	st.AttachWAL(l)
	logged := func() uint64 { return l.Stats().Enqueued }
	check := func(step string, want ...bool) {
		t.Helper()
		if got := armed(st); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: expiring flags %v, want %v", step, got, want)
		}
		if err := st.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
	}
	for i := range st.Shards() {
		for n := 0; n < 20; n++ {
			if err := st.Set(keyIn(st, i, fmt.Sprintf("plain%d", n)), "v"); err != nil {
				t.Fatal(err)
			}
		}
	}
	check("plain keys only", false, false, false, false)

	before := logged()
	for i := range st.Shards() {
		var n int
		commits, opens := opensPerCommit(t, st, func() {
			var err error
			if n, err = st.SweepShard(i); err != nil {
				t.Fatal(err)
			}
		})
		if n != 0 || commits != 1 || opens > 1 {
			t.Fatalf("sweep of TTL-free shard %d: %d reaped, %d commits, %.0f opens; want 0, 1, at most 1", i, n, commits, opens)
		}
	}
	if got := logged(); got != before {
		t.Fatalf("sweeping TTL-free shards logged %d records", got-before)
	}

	doomed := keyIn(st, 2, "doomed")
	if err := st.SetTTL(doomed, "v", time.Millisecond); err != nil {
		t.Fatal(err)
	}
	check("SET PX", false, false, true, false)
	if n, err := st.SweepShard(2); err != nil || n != 0 {
		t.Fatalf("sweep before the deadline reaped %d (%v)", n, err)
	}
	check("sweep before the deadline", false, false, true, false)

	clk.advance(time.Second)
	before = logged()
	if n, err := st.SweepShard(2); err != nil || n != 1 {
		t.Fatalf("sweep after the deadline reaped %d (%v), want 1", n, err)
	}
	if got := logged(); got != before+1 {
		t.Fatalf("reaping sweep logged %d records, want 1", got-before)
	}
	check("sweep after the deadline", false, false, false, false)

	touched := keyIn(st, 2, "plain0")
	if ok, err := do(st, func(tx *stm.Tx, now int64) (bool, error) { return st.ExpireTx(tx, now, touched, time.Hour) }); err != nil || !ok {
		t.Fatalf("EXPIRE = %v, %v", ok, err)
	}
	check("EXPIRE", false, false, true, false)
	if err := st.Set(touched, "v"); err != nil {
		t.Fatal(err)
	}
	check("plain SET over the TTL key", false, false, true, false)
	before = logged()
	if n, err := st.SweepShard(2); err != nil || n != 0 {
		t.Fatalf("sweep after the plain SET reaped %d (%v), want 0", n, err)
	}
	if got := logged(); got != before {
		t.Fatalf("clearing sweep logged %d records, want none", got-before)
	}
	check("sweep after the plain SET", false, false, false, false)

	survivor := keyIn(st, 1, "survivor")
	if err := st.SetTTL(survivor, "v", time.Hour); err != nil {
		t.Fatal(err)
	}
	check("second SET PX", false, true, false, false)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	b := New(stm.New(), WithShards(4), WithClock(clk.now))
	sawTombstone := false
	_, err := wal.Recover(dir, func(ops []wal.Op) error {
		for _, op := range ops {
			sawTombstone = sawTombstone || op.Del && op.Key == doomed
		}
		return b.Apply(ops)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sawTombstone {
		t.Fatal("the reaping sweep logged no tombstone")
	}
	// Replay arms every shard the history wrote a deadline to, dead or
	// since cleared; the first sweep settles them.
	if !b.expiring[b.shardIndex(survivor)].Peek() {
		t.Fatalf("recovered expiring flags %v: %q's shard %d is clear", armed(b), survivor, b.shardIndex(survivor))
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Sweep(); err != nil {
		t.Fatal(err)
	}
	want := make([]bool, 4)
	want[b.shardIndex(survivor)] = true
	if got := armed(b); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("recovered flags %v after a sweep, want %v (only %q has a TTL)", got, want, survivor)
	}

	// The audit catches a deadline in a clear shard.
	if err := b.s.Atomically(func(tx *stm.Tx) error { return stm.Write(tx, b.expiring[b.shardIndex(survivor)], false) }); err != nil {
		t.Fatal(err)
	}
	if err := b.CheckInvariants(); err == nil {
		t.Fatal("CheckInvariants passed with a deadline in a shard whose flag is clear")
	}
}

// TestSweepRacesTTLWriters races writers that set, set with a TTL,
// expire and delete a small key range against a goroutine that sweeps
// shard after shard, with the clock creeping forward so that sweeps
// reap and clear flags while TTL writers arm them. The store audits
// clean throughout — no deadline in a shard whose flag is clear — and
// once the clock has passed every deadline, one Sweep leaves no
// deadline anywhere and every flag clear.
func TestSweepRacesTTLWriters(t *testing.T) {
	for _, mode := range []string{"eager", "lazy"} {
		t.Run(mode, func(t *testing.T) {
			var opts []stm.Option
			if mode == "lazy" {
				opts = append(opts, stm.WithLazyConflicts())
			}
			testSweepRacesTTLWriters(t, opts...)
		})
	}
}

func testSweepRacesTTLWriters(t *testing.T, opts ...stm.Option) {
	const writers, keys, maxTTL = 4, 48, 64
	ops := 50 * hammerOps(t)
	var clk atomic.Int64
	st := New(stm.New(opts...), WithShards(4), withBuckets(2), WithClock(clk.Load))

	var wg sync.WaitGroup
	var done atomic.Int32
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer done.Add(1)
			rng := rand.New(rand.NewPCG(uint64(w), 7))
			for range ops {
				key := fmt.Sprintf("k%d", rng.IntN(keys))
				ttl := time.Duration(1 + rng.IntN(maxTTL))
				var err error
				switch rng.IntN(4) {
				case 0:
					err = st.Set(key, "v")
				case 1:
					err = st.SetTTL(key, "v", ttl)
				case 2:
					_, err = do(st, func(tx *stm.Tx, now int64) (bool, error) { return st.ExpireTx(tx, now, key, ttl) })
				default:
					_, err = st.Del(key)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	sweeps, reaped := 0, 0
	for shard := 0; done.Load() < writers; shard = (shard + 1) % st.Shards() {
		clk.Add(1)
		n, err := st.SweepShard(shard)
		if err != nil {
			t.Fatal(err)
		}
		sweeps, reaped = sweeps+1, reaped+n
		if sweeps%16 == 0 {
			if err := st.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		}
	}
	wg.Wait()

	clk.Add(maxTTL + 1)
	n, err := st.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	for i, sh := range st.shards {
		sh.Peek(func(key string, e entry) {
			if e.deadline() != 0 {
				t.Errorf("shard %d: %q still has a deadline after the final sweep", i, key)
			}
		})
	}
	if got := armed(st); fmt.Sprint(got) != fmt.Sprint(make([]bool, st.Shards())) {
		t.Errorf("expiring flags %v after the final sweep, want all clear", got)
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d racing sweeps reaped %d keys, the final one %d", sweeps, reaped, n)
}
