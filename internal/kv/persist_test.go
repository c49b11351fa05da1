package kv

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/stm"
	"repro/internal/wal"
)

// sortOps orders ops by key, stably: SnapshotOps emits each key's op
// sequence in a canonical order (sorted hash fields, list front to
// back, zset score order), so a stable by-key sort makes two dumps of
// the same logical state comparable whatever their shard iteration
// order.
func sortOps(ops []wal.Op) []wal.Op {
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].Key < ops[j].Key })
	return ops
}

func openTestWAL(t *testing.T, dir string) *wal.Log {
	t.Helper()
	l, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestWALRestoreEqualsPreCrashState is the acceptance test for the
// restore path: a scripted history with TTLs, deletes, sweeps and a
// mid-history snapshot, recovered into a fresh store, must reproduce
// exactly the live state of the original.
func TestWALRestoreEqualsPreCrashState(t *testing.T) {
	dir := t.TempDir()
	var clk atomic.Int64
	clk.Store(1_000)
	clock := func() int64 { return clk.Load() }
	var ok bool

	a := New(stm.New(), WithShards(4), withBuckets(2), WithClock(clock))
	l := openTestWAL(t, dir)
	a.AttachWAL(l)

	for i := 0; i < 40; i++ {
		if err := a.Set(fmt.Sprintf("key:%03d", i), fmt.Sprint(i)); err != nil {
			t.Fatal(err)
		}
	}
	// TTLs at various deadlines; some will die before the cut.
	for i := 0; i < 10; i++ {
		if err := a.SetTTL(fmt.Sprintf("tmp:%d", i), "x", time.Duration(100+i*50)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.Del("key:003", "key:007", "missing"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Incr("ctr", 5); err != nil {
		t.Fatal(err)
	}
	if _, err := do(a, func(tx *stm.Tx, now int64) (bool, error) { return a.ExpireTx(tx, now, "key:001", 120) }); err != nil {
		t.Fatal(err)
	}
	clk.Add(300) // kills tmp:0..3 and key:001
	if _, err := a.Sweep(); err != nil {
		t.Fatal(err)
	}
	if err := a.Save(context.Background()); err != nil {
		t.Fatal(err)
	}
	// History after the snapshot, replayed from the rotated log.
	if err := a.MSet(KV{K: "post:a", V: "1"}, KV{K: "post:b", V: "2"}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Incr("ctr", -2); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Del("key:010"); err != nil {
		t.Fatal(err)
	}
	if err := a.SetTTL("tmp:new", "y", 10_000); err != nil {
		t.Fatal(err)
	}

	want, err := a.SnapshotOps()
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	b := New(stm.New(), WithShards(8), withBuckets(2), WithClock(clock))
	st, err := wal.Recover(dir, b.Apply)
	if err != nil {
		t.Fatal(err)
	}
	if st.SnapshotOps == 0 || st.Records == 0 {
		t.Fatalf("recovery used neither snapshot nor log: %+v", st)
	}
	got, err := b.SnapshotOps()
	if err != nil {
		t.Fatal(err)
	}
	wantS, gotS := sortOps(want), sortOps(got)
	if len(wantS) != len(gotS) {
		t.Fatalf("restored %d live entries, want %d\n got %+v\nwant %+v", len(gotS), len(wantS), gotS, wantS)
	}
	for i := range wantS {
		if wantS[i] != gotS[i] {
			t.Fatalf("entry %d: got %+v, want %+v", i, gotS[i], wantS[i])
		}
	}
	if v, ok, _ := b.Get("ctr"); !ok || v != "3" {
		t.Fatalf("ctr = %q (%v), want 3", v, ok)
	}
	// TTL semantics survive: tmp:new still carries its deadline.
	if d, _ := do(b, func(tx *stm.Tx, now int64) (v time.Duration, err error) {
		v, ok, err = b.TTLTx(tx, now, "tmp:new")
		return
	}); !ok || d <= 0 {
		t.Fatalf("tmp:new TTL = %v (%v)", d, ok)
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRawTransactionIsLogged: a write set committed through the STM
// directly — the *Tx forms under the caller's own Atomically, as the
// benchmark harness runs them — is logged like one through the store's
// Atomically, so it recovers from the directory.
func TestRawTransactionIsLogged(t *testing.T) {
	dir := t.TempDir()
	st := New(stm.New())
	l := openTestWAL(t, dir)
	st.AttachWAL(l)
	err := st.STM().Atomically(func(tx *stm.Tx) error {
		now := st.Now()
		if err := st.SetTx(tx, now, "k", "v", 0); err != nil {
			return err
		}
		_, err := st.HSetTx(tx, now, "h", "f", "1")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	// A read-only transaction arms nothing and logs nothing.
	if err := st.STM().Atomically(func(tx *stm.Tx) error {
		_, _, err := st.GetTx(tx, st.Now(), "k")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := l.Stats().Records(); got != 1 {
		t.Fatalf("%d records logged, want the one write set", got)
	}
	fresh := New(stm.New())
	if _, err := wal.Recover(dir, fresh.Apply); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := fresh.Get("k"); err != nil || !ok || v != "v" {
		t.Fatalf("recovered k = %q, %v, %v; want v", v, ok, err)
	}
	var f string
	err = fresh.Atomically(func(tx *stm.Tx, now int64) (err error) {
		f, _, err = fresh.HGetTx(tx, now, "h", "f")
		return err
	})
	if err != nil || f != "1" {
		t.Fatalf("recovered h.f = %q, %v; want 1", f, err)
	}
}

// TestWALConcurrentTransfersConserve hammers the durable store with
// concurrent cross-key transfers, then recovers the directory
// as-is — no clean Close, as a crash would leave it — and checks the
// conservation sum and full state equality. Every transfer waited on
// its durability ack, so everything is on disk despite the missing
// shutdown.
func TestWALConcurrentTransfersConserve(t *testing.T) {
	dir := t.TempDir()
	a := New(stm.New(), WithShards(8), withBuckets(4))
	l := openTestWAL(t, dir)
	a.AttachWAL(l)

	const accounts = 8
	const balance = 1000
	pairs := make([]KV, accounts)
	keys := make([]string, accounts)
	for i := range pairs {
		keys[i] = fmt.Sprintf("acct:%d", i)
		pairs[i] = KV{K: keys[i], V: fmt.Sprint(balance)}
	}
	if err := a.MSet(pairs...); err != nil {
		t.Fatal(err)
	}
	const workers = 8
	const perW = 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				from, to := keys[(w+i)%accounts], keys[(w+i+1)%accounts]
				err := a.Atomically(func(tx *stm.Tx, now int64) error {
					if _, err := a.IncrTx(tx, now, from, -3); err != nil {
						return err
					}
					_, err := a.IncrTx(tx, now, to, 3)
					return err
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	want, err := a.SnapshotOps()
	if err != nil {
		t.Fatal(err)
	}

	// Recover without closing the log: the on-disk state is what a
	// kill -9 after the last ack would leave.
	b := New(stm.New(), WithShards(8), withBuckets(4))
	if _, err := wal.Recover(dir, b.Apply); err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, k := range keys {
		v, ok, err := b.Get(k)
		if err != nil || !ok {
			t.Fatalf("account %s missing after recovery (%v)", k, err)
		}
		var n int
		fmt.Sscan(v, &n)
		sum += n
	}
	if sum != accounts*balance {
		t.Fatalf("conservation broken: sum %d, want %d", sum, accounts*balance)
	}
	got, err := b.SnapshotOps()
	if err != nil {
		t.Fatal(err)
	}
	wantS, gotS := sortOps(want), sortOps(got)
	if len(wantS) != len(gotS) {
		t.Fatalf("restored %d entries, want %d", len(gotS), len(wantS))
	}
	for i := range wantS {
		if wantS[i] != gotS[i] {
			t.Fatalf("entry %d: got %+v, want %+v", i, gotS[i], wantS[i])
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSweepLogsTombstones pins the expiry contract end to end. A dead
// entry is absent to every read but stays in its chain — a SET on a
// neighbouring key does not reap it — until SweepShard removes it, and
// the swept expiry is logged, so replay agrees with the reap even
// under a clock that has not reached the deadline (the resurrection
// case absolute deadlines alone cannot rule out).
func TestSweepLogsTombstones(t *testing.T) {
	var ok bool
	dir := t.TempDir()
	var clk atomic.Int64
	clk.Store(1_000)
	// One shard of one bucket: every key is every other key's neighbour.
	a := New(stm.New(), WithShards(1), withBuckets(1), WithClock(func() int64 { return clk.Load() }))
	l := openTestWAL(t, dir)
	a.AttachWAL(l)
	physical := func() int {
		n := 0
		a.shards[0].Peek(func(string, entry) { n++ })
		return n
	}

	if err := a.SetTTL("doomed", "v", 50); err != nil {
		t.Fatal(err)
	}
	if err := a.Set("keeper", "v"); err != nil {
		t.Fatal(err)
	}
	clk.Add(100)
	if _, ok, err := a.Get("doomed"); err != nil || ok {
		t.Fatalf("Get(dead) = %v, %v; want absent", ok, err)
	}
	if _, err := do(a, func(tx *stm.Tx, now int64) (v time.Duration, err error) {
		v, ok, err = a.TTLTx(tx, now, "doomed")
		return
	}); err != nil || ok {
		t.Fatalf("TTL(dead) = %v, %v; want absent", ok, err)
	}
	if _, err := do(a, func(tx *stm.Tx, now int64) (v string, err error) { v, ok, err = a.TypeTx(tx, now, "doomed"); return }); err != nil || ok {
		t.Fatalf("Type(dead) = %v, %v; want absent", ok, err)
	}
	if err := a.Set("neighbour", "v"); err != nil {
		t.Fatal(err)
	}
	if got := physical(); got != 3 {
		t.Fatalf("chain holds %d entries after a neighbouring SET, want 3 (dead one included)", got)
	}
	removed, err := a.SweepShard(0)
	if err != nil || removed != 1 {
		t.Fatalf("sweep removed %d (%v), want 1", removed, err)
	}
	if got := physical(); got != 2 {
		t.Fatalf("chain holds %d entries after the sweep, want 2", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	var sawTombstone bool
	apply := func(ops []wal.Op) error {
		for _, op := range ops {
			if op.Del && op.Key == "doomed" {
				sawTombstone = true
			}
		}
		return nil
	}
	if _, err := wal.Recover(dir, apply); err != nil {
		t.Fatal(err)
	}
	if !sawTombstone {
		t.Fatal("sweep did not log a tombstone for the reaped key")
	}

	// Replay under a clock still before the deadline: without the
	// tombstone the entry would resurrect.
	b := New(stm.New(), WithShards(2), WithClock(func() int64 { return 1_000 }))
	if _, err := wal.Recover(dir, b.Apply); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := b.Get("doomed"); ok {
		t.Fatal("swept key resurrected on replay")
	}
	if _, ok, _ := b.Get("keeper"); !ok {
		t.Fatal("keeper lost")
	}
}

// TestServerSaveRestoreBinaryKeys drives SAVE/BGSAVE over the wire and
// checks that binary-hostile keys (NULs, CRLFs, high bytes) survive the
// full protocol → store → snapshot → restore path.
func TestServerSaveRestoreBinaryKeys(t *testing.T) {
	dir := t.TempDir()
	a := New(stm.New(), WithShards(4))
	l := openTestWAL(t, dir)
	a.AttachWAL(l)
	addr, stop := startServer(t, a)
	c := dialClient(t, addr)
	defer c.Close()

	bin := "b\x00in\xff\r\n:key"
	val := "v\x00al\xfe\r\n"
	mustDo(t, c, "SET", bin, val)
	mustDo(t, c, "SET", "plain", "1")
	if v := mustDo(t, c, "GET", bin); v.Str != val {
		t.Fatalf("GET binary = %q, want %q", v.Str, val)
	}
	if v := mustDo(t, c, "SAVE"); v.Str != "OK" {
		t.Fatalf("SAVE = %q", v.Str)
	}
	mustDo(t, c, "SET", "after", "2")
	if v := mustDo(t, c, "BGSAVE"); v.Str != "Background saving started" {
		t.Fatalf("BGSAVE = %q", v.Str)
	}
	// The background cut holds the single-flight slot; SAVE reports
	// "in progress" until it finishes, then succeeds again.
	deadline := time.Now().Add(10 * time.Second)
	for {
		v, err := c.Do("SAVE")
		if err != nil {
			t.Fatal(err)
		}
		if !v.IsError() {
			break
		}
		if !strings.Contains(v.Str, "in progress") {
			t.Fatalf("SAVE after BGSAVE: %q", v.Str)
		}
		if time.Now().After(deadline) {
			t.Fatal("background save never finished")
		}
		time.Sleep(time.Millisecond)
	}
	stop()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	b := New(stm.New(), WithShards(4))
	if _, err := wal.Recover(dir, b.Apply); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := b.Get(bin); !ok || v != val {
		t.Fatalf("binary key after restore = %q (%v), want %q", v, ok, val)
	}
	if _, ok, _ := b.Get("after"); !ok {
		t.Fatal("post-snapshot write lost")
	}
}

// TestServerSaveErrors pins the failure replies: SAVE without
// persistence, and SAVE/BGSAVE inside MULTI poisoning the block.
func TestServerSaveErrors(t *testing.T) {
	addr, stop := startServer(t, New(stm.New()))
	defer stop()
	c := dialClient(t, addr)
	defer c.Close()

	v, err := c.Do("SAVE")
	if err != nil {
		t.Fatal(err)
	}
	if !v.IsError() || !strings.Contains(v.Str, "persistence is disabled") {
		t.Fatalf("SAVE on memory-only store: %q", v.Str)
	}
	mustDo(t, c, "MULTI")
	v, err = c.Do("BGSAVE")
	if err != nil {
		t.Fatal(err)
	}
	if !v.IsError() || !strings.Contains(v.Str, "inside MULTI") {
		t.Fatalf("BGSAVE inside MULTI: %q", v.Str)
	}
	v, err = c.Do("EXEC")
	if err != nil {
		t.Fatal(err)
	}
	if !v.IsError() || !strings.Contains(v.Str, "EXECABORT") {
		t.Fatalf("EXEC after poisoned block: %q", v.Str)
	}
}
