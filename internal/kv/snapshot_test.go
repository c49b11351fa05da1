package kv

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/stm"
	"repro/internal/wal"
)

// TestSnapshotUnderWriters runs Save in a loop beside four writers that
// never stop, and at random instants takes the data directory as it
// lies — mid-cut, mid-roll-forward, between rename and reap, wherever
// Save happens to be — recovers the copy into a fresh store and compares
// it with the truth. The writers cover what makes an inexact cut
// visible: list pushes and pops (deltas: an op applied twice or not at
// all changes the list), containers emptied to their auto-delete, a key
// deleted and recreated as another kind (an op replayed against the
// wrong side of that boundary is a WRONGTYPE), TTLs that expire with no
// sweeper running, and transactions that write keys of several chunks
// and shards at once. One Save has the store double three times under
// it. Every Save must return nil — under the whole-store cut this
// replaces, none did — and no chunk may read more than chunkBuckets
// buckets.
//
// The truth is twofold. Writers pause for each copy (Save does not), so
// the live store's own dump is exact for every key, shared ones
// included; and each writer journals the write sets it was acknowledged
// on keys only it writes, which an independent interpreter (model)
// turns into the state those keys must have.
func TestSnapshotUnderWriters(t *testing.T) {
	for _, mode := range []string{"eager", "lazy"} {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/%dshards", mode, shards), func(t *testing.T) {
				var opts []stm.Option
				if mode == "lazy" {
					opts = append(opts, stm.WithLazyConflicts())
				}
				testSnapshotUnderWriters(t, shards, opts...)
			})
		}
	}
}

func testSnapshotUnderWriters(t *testing.T, shards int, opts ...stm.Option) {
	const writers = 4
	images := 10
	if testing.Short() {
		images = 5
	}
	dir := t.TempDir()
	// The clock moves only while the writers are paused, so a TTL is
	// dead or alive for everyone at once.
	var clk atomic.Int64
	clk.Store(1_000)
	st := New(stm.New(opts...), WithShards(shards), withBuckets(2), WithClock(clk.Load))
	l := openTestWAL(t, dir)
	defer l.Close()
	st.AttachWAL(l)

	accounts := make([]KV, 8)
	for i := range accounts {
		accounts[i] = KV{K: fmt.Sprintf("acct:%d", i), V: "1000"}
	}
	if err := st.MSet(accounts...); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 80*shards; i++ { // several chunks per shard before the first Save
		if err := st.Set(fmt.Sprintf("seed:%d", i), "s"); err != nil {
			t.Fatal(err)
		}
	}

	// The second chunk attempt of the first Save waits while the store
	// doubles at least three times: the chunk before it was sized for
	// the old arrays, the ones after it find their classes too wide.
	var (
		gate               sync.RWMutex // held shared around every write: freeze takes it whole
		attempts           atomic.Int64
		widest             atomic.Int64
		grewFrom, grewInto []int
	)
	st.chunkCut = func(buckets int) {
		for w := widest.Load(); int64(buckets) > w && !widest.CompareAndSwap(w, int64(buckets)); w = widest.Load() {
		}
		if attempts.Add(1) != 2 {
			return
		}
		grewFrom = st.BucketsPerShard()
		grown := make(chan error, 1)
		go func() { // not from inside the chunk's transaction
			// The writers may already have grown the store well past its
			// seed size, so insert until some shard has doubled three
			// times rather than a fixed count (capped, so a store that
			// stopped growing fails the check below instead of hanging).
			tripled := func() bool {
				for i, n := range st.BucketsPerShard() {
					if n >= 8*grewFrom[i] {
						return true
					}
				}
				return false
			}
			var err error
			for i := 0; i < 200*shards && err == nil && !tripled(); i++ {
				batch := make([]KV, 70)
				for j := range batch {
					batch[j] = KV{K: fmt.Sprintf("grow:%d:%d", i, j), V: "g"}
				}
				gate.RLock()
				err = st.MSet(batch...)
				gate.RUnlock()
			}
			grown <- err
		}()
		if err := <-grown; err != nil {
			t.Error(err)
		}
		grewInto = st.BucketsPerShard()
	}

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	ws := make([]*snapshotWriter, writers)
	for i := range ws {
		ws[i] = &snapshotWriter{id: i, st: st, now: clk.Load, rng: rand.New(rand.NewPCG(uint64(i), 23))}
		wg.Add(1)
		go func(w *snapshotWriter) {
			defer wg.Done()
			for ctx.Err() == nil {
				gate.RLock()
				err := w.step()
				gate.RUnlock()
				if err != nil {
					t.Errorf("writer %d: %v", w.id, err)
					return
				}
			}
		}(ws[i])
	}
	var saves atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for ctx.Err() == nil {
			if err := st.Save(ctx); err == nil {
				saves.Add(1)
			} else if !errors.Is(err, context.Canceled) {
				t.Errorf("Save beside %d writers: %v", writers, err)
				return
			}
		}
	}()

	defer func() { cancel(); wg.Wait() }() // on a Fatal too, before the log closes

	// freeze pauses the writers, moves the clock and takes the truth
	// and the directory at that instant.
	freeze := func() (now int64, want []wal.Op, private model, image string) {
		gate.Lock()
		defer gate.Unlock()
		now = clk.Add(1)
		want, err := st.SnapshotOps()
		if err != nil {
			t.Fatal(err)
		}
		image = filepath.Join(t.TempDir(), "image")
		copyDataDir(t, dir, image)
		private = model{}
		for _, w := range ws {
			for _, rec := range w.journal {
				private.apply(rec)
			}
		}
		return now, want, private, image
	}
	rng := rand.New(rand.NewPCG(99, uint64(shards)))
	deadline := time.Now().Add(30 * time.Second)
	for img := 0; (img < images || saves.Load() < 3) && !t.Failed() && time.Now().Before(deadline); img++ {
		time.Sleep(time.Duration(2+rng.IntN(25)) * time.Millisecond)
		now, want, private, image := freeze()
		got := New(stm.New(), WithShards(2), WithClock(func() int64 { return now }))
		rst, err := wal.Recover(image, got.Apply)
		if err != nil {
			t.Fatalf("image %d: recover: %v", img, err)
		}
		if err := got.CheckInvariants(); err != nil {
			t.Fatalf("image %d: %v", img, err)
		}
		dump, err := got.SnapshotOps()
		if err != nil {
			t.Fatal(err)
		}
		sortOps(want)
		sortOps(dump)
		if diff := firstDiff(want, dump); diff != "" {
			t.Fatalf("image %d (%+v): recovered state is not the live state: %s", img, rst, diff)
		}
		var mine []wal.Op
		for _, op := range dump {
			if strings.HasPrefix(op.Key, "w") {
				mine = append(mine, op)
			}
		}
		if diff := firstDiff(private.dump(now), mine); diff != "" {
			t.Fatalf("image %d (%+v): recovered state is not what the writers were acknowledged: %s", img, rst, diff)
		}
	}
	cancel()
	wg.Wait()

	if n := saves.Load(); n < 3 {
		t.Errorf("%d snapshots completed beside the writers in 30 s, want at least 3", n)
	}
	if w := widest.Load(); w > chunkBuckets {
		t.Errorf("a chunk read %d buckets, bound is %d", w, chunkBuckets)
	}
	grew := false
	for i := range grewInto {
		grew = grew || grewInto[i] >= 8*grewFrom[i]
	}
	if !grew {
		t.Errorf("no shard doubled three times during the first Save: buckets %v → %v", grewFrom, grewInto)
	}
	chunks, retries := st.SaveStats()
	t.Logf("%d snapshots, last in %d chunks (widest %d buckets), %d chunk retries, buckets %v → %v under the first",
		saves.Load(), chunks, widest.Load(), retries, grewFrom, grewInto)
}

// copyDataDir copies the log directory src as a crash would leave it.
// Writers are paused, so segments only change by Save rotating onto a
// new one (empty) or reaping; a needed segment can vanish only after a
// newer snapshot was renamed into place, so a copy during which the
// snapshot file did not change is an instant the directory was in.
func copyDataDir(t *testing.T, src, dst string) {
	t.Helper()
	for try := 0; try < 100; try++ {
		if err := os.RemoveAll(dst); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(dst, 0o755); err != nil {
			t.Fatal(err)
		}
		snap, _ := os.ReadFile(filepath.Join(src, "snapshot.kvs"))
		entries, err := os.ReadDir(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if !strings.HasSuffix(e.Name(), ".log") {
				continue
			}
			data, err := os.ReadFile(filepath.Join(src, e.Name()))
			if os.IsNotExist(err) {
				continue // reaped: below the snapshot's base, or the snapshot moved
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if again, _ := os.ReadFile(filepath.Join(src, "snapshot.kvs")); !bytes.Equal(snap, again) {
			continue
		}
		if snap != nil {
			if err := os.WriteFile(filepath.Join(dst, "snapshot.kvs"), snap, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	t.Fatal("the snapshot file never held still for a copy")
}

// firstDiff names the first op two sorted dumps disagree on.
func firstDiff(want, got []wal.Op) string {
	for i := 0; i < len(want) || i < len(got); i++ {
		switch {
		case i >= len(got):
			return fmt.Sprintf("missing %+v (%d ops, want %d)", want[i], len(got), len(want))
		case i >= len(want):
			return fmt.Sprintf("extra %+v (%d ops, want %d)", got[i], len(got), len(want))
		case want[i] != got[i]:
			return fmt.Sprintf("op %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	return ""
}

// snapshotWriter is one writer of TestSnapshotUnderWriters. Keys that
// start with its prefix are its alone, and every write set it is
// acknowledged on them goes into journal; lists and accounts are shared
// with the other writers.
type snapshotWriter struct {
	id      int
	st      *Store
	now     func() int64
	rng     *rand.Rand
	seq     int
	morph   int
	journal [][]wal.Op
}

func (w *snapshotWriter) key(name string, n int) string {
	return fmt.Sprintf("w%d:%s:%d", w.id, name, n)
}

func (w *snapshotWriter) step() error {
	w.seq++
	val := fmt.Sprintf("%d.%d", w.id, w.seq)
	log := func(ops ...wal.Op) { w.journal = append(w.journal, ops) }
	switch w.rng.IntN(13) {
	case 0:
		k := w.key("s", w.rng.IntN(40))
		log(wal.Op{Key: k, Val: val})
		return w.st.Set(k, val)
	case 1:
		k := w.key("ctr", 0)
		n, err := w.st.Incr(k, 1)
		log(wal.Op{Key: k, Val: fmt.Sprint(n)})
		return err
	case 2:
		k := w.key("s", w.rng.IntN(40))
		log(wal.Op{Key: k, Del: true})
		_, err := w.st.Del(k)
		return err
	case 3: // a TTL of one to three images, and nobody sweeps
		k, ttl := w.key("ttl", w.rng.IntN(10)), time.Duration(1+w.rng.IntN(3))
		log(wal.Op{Key: k, Val: val, ExpireAt: w.now() + int64(ttl)})
		return w.st.SetTTL(k, val, ttl)
	case 4:
		k := w.key("list", 0)
		log(wal.Op{Kind: wal.KindList, Key: k, Val: val})
		_, err := w.st.RPush(k, val)
		return err
	case 5:
		k := w.key("list", 0)
		log(wal.Op{Kind: wal.KindList, Key: k, Del: true, Front: true})
		_, err := do(w.st, func(tx *stm.Tx, now int64) (string, error) { v, _, err := w.st.LPopTx(tx, now, k); return v, err })
		return err
	case 6:
		_, err := w.st.RPush(fmt.Sprintf("shared:list:%d", w.rng.IntN(2)), val)
		return err
	case 7:
		k := fmt.Sprintf("shared:list:%d", w.rng.IntN(2))
		_, err := do(w.st, func(tx *stm.Tx, now int64) (string, error) { v, _, err := w.st.LPopTx(tx, now, k); return v, err })
		return err
	case 8: // three fields, deleted as often as set: the hash empties now and then
		k, f := w.key("hash", 0), fmt.Sprint(w.rng.IntN(3))
		if w.rng.IntN(2) == 0 {
			log(wal.Op{Kind: wal.KindHash, Key: k, Field: f, Val: val})
			_, err := do(w.st, func(tx *stm.Tx, now int64) (bool, error) { return w.st.HSetTx(tx, now, k, f, val) })
			return err
		}
		log(wal.Op{Kind: wal.KindHash, Key: k, Field: f, Del: true})
		_, err := do(w.st, func(tx *stm.Tx, now int64) (int, error) { return w.st.HDelTx(tx, now, k, f) })
		return err
	case 9:
		k, m := w.key("zset", 0), fmt.Sprint(w.rng.IntN(3))
		if w.rng.IntN(2) == 0 {
			score := float64(w.rng.IntN(50))
			log(wal.Op{Kind: wal.KindZSet, Key: k, Field: m, Val: formatScore(score)})
			_, err := do(w.st, func(tx *stm.Tx, now int64) (bool, error) { return w.st.ZAddTx(tx, now, k, m, score) })
			return err
		}
		log(wal.Op{Kind: wal.KindZSet, Key: k, Field: m, Del: true})
		_, err := do(w.st, func(tx *stm.Tx, now int64) (int, error) { return w.st.ZRemTx(tx, now, k, m) })
		return err
	case 10: // delete, then come back as the next kind
		k := w.key("morph", 0)
		log(wal.Op{Key: k, Del: true})
		if _, err := w.st.Del(k); err != nil {
			return err
		}
		w.morph++
		var err error
		switch w.morph % 4 {
		case 0:
			log(wal.Op{Key: k, Val: val})
			err = w.st.Set(k, val)
		case 1:
			log(wal.Op{Kind: wal.KindList, Key: k, Val: val})
			_, err = w.st.RPush(k, val)
		case 2:
			log(wal.Op{Kind: wal.KindHash, Key: k, Field: "f", Val: val})
			_, err = do(w.st, func(tx *stm.Tx, now int64) (bool, error) { return w.st.HSetTx(tx, now, k, "f", val) })
		case 3:
			log(wal.Op{Kind: wal.KindZSet, Key: k, Field: "m", Val: "1"})
			_, err = do(w.st, func(tx *stm.Tx, now int64) (bool, error) { return w.st.ZAddTx(tx, now, k, "m", 1) })
		}
		return err
	default: // one transaction over several keys, kinds and shards
		from, to := fmt.Sprintf("acct:%d", w.rng.IntN(8)), fmt.Sprintf("acct:%d", w.rng.IntN(8))
		k := w.key("s", w.rng.IntN(40))
		log(wal.Op{Key: k, Val: val})
		return w.st.Atomically(func(tx *stm.Tx, now int64) error {
			if _, err := w.st.IncrTx(tx, now, from, -3); err != nil {
				return err
			}
			if _, err := w.st.IncrTx(tx, now, to, 3); err != nil {
				return err
			}
			if _, err := w.st.RPushTx(tx, now, "shared:list:0", val); err != nil {
				return err
			}
			return w.st.SetTx(tx, now, k, val, 0)
		})
	}
}

// model interprets write sets the way the store is meant to, with
// nothing of the store in it: the reference the recovered state of the
// writers' own keys is held to.
type model map[string]*modelValue

type modelValue struct {
	kind     wal.Kind
	str      string
	expireAt int64
	list     []string
	hash     map[string]string
	zset     map[string]string // member → canonical score
}

func (m model) apply(ops []wal.Op) {
	for _, op := range ops {
		v := m[op.Key]
		if op.Kind == wal.KindString {
			if op.Del {
				delete(m, op.Key)
			} else {
				m[op.Key] = &modelValue{str: op.Val, expireAt: op.ExpireAt}
			}
			continue
		}
		if v == nil {
			if op.Del {
				continue
			}
			v = &modelValue{kind: op.Kind, hash: map[string]string{}, zset: map[string]string{}}
			m[op.Key] = v
		}
		switch {
		case op.Kind == wal.KindList && op.Del:
			v.list = v.list[1:] // the writers pop fronts only
		case op.Kind == wal.KindList:
			v.list = append(v.list, op.Val)
		case op.Kind == wal.KindHash && op.Del:
			delete(v.hash, op.Field)
		case op.Kind == wal.KindHash:
			v.hash[op.Field] = op.Val
		case op.Del:
			delete(v.zset, op.Field)
		default:
			v.zset[op.Field] = op.Val
		}
		if len(v.list)+len(v.hash)+len(v.zset) == 0 {
			delete(m, op.Key) // an emptied container is no key
		}
	}
}

// dump is the model's state at instant now in SnapshotOps' canonical
// form, sorted by key.
func (m model) dump(now int64) []wal.Op {
	var out []wal.Op
	for key, v := range m {
		switch v.kind {
		case wal.KindString:
			if v.expireAt == 0 || v.expireAt > now {
				out = append(out, wal.Op{Key: key, Val: v.str, ExpireAt: v.expireAt})
			}
		case wal.KindList:
			for _, e := range v.list {
				out = append(out, wal.Op{Kind: wal.KindList, Key: key, Val: e})
			}
		case wal.KindHash:
			fields := make([]string, 0, len(v.hash))
			for f := range v.hash {
				fields = append(fields, f)
			}
			sort.Strings(fields)
			for _, f := range fields {
				out = append(out, wal.Op{Kind: wal.KindHash, Key: key, Field: f, Val: v.hash[f]})
			}
		case wal.KindZSet:
			members := make([]string, 0, len(v.zset))
			for mem := range v.zset {
				members = append(members, mem)
			}
			sort.Slice(members, func(i, j int) bool {
				var si, sj float64
				fmt.Sscan(v.zset[members[i]], &si)
				fmt.Sscan(v.zset[members[j]], &sj)
				if si != sj {
					return si < sj
				}
				return members[i] < members[j]
			})
			for _, mem := range members {
				out = append(out, wal.Op{Kind: wal.KindZSet, Key: key, Field: mem, Val: v.zset[mem]})
			}
		}
	}
	return sortOps(out)
}

// TestSaveWaitsOutWriterBetweenCASAndAppend parks a writer where no
// clock can see it: past its status CAS, so its push is visible to every
// reader, and before its commit hook has appended the record. A chunk
// that took the log's position without the writer's stripe would hold
// the push and a position below its record, and recovery would push
// twice. Save must instead wait at that chunk until the hook returns.
func TestSaveWaitsOutWriterBetweenCASAndAppend(t *testing.T) {
	for _, mode := range []string{"eager", "lazy"} {
		t.Run(mode, func(t *testing.T) {
			var opts []stm.Option
			if mode == "lazy" {
				opts = append(opts, stm.WithLazyConflicts())
			}
			dir := t.TempDir()
			st := New(stm.New(opts...), WithShards(1))
			l := openTestWAL(t, dir)
			st.AttachWAL(l)
			if _, err := st.RPush("l", "a"); err != nil {
				t.Fatal(err)
			}

			parked, release := make(chan struct{}), make(chan struct{})
			writer := make(chan error, 1)
			go func() {
				// Store.commit by hand, with a hook that stops before it logs.
				c := &writeCapture{}
				writer <- st.s.Atomically(func(tx *stm.Tx) error {
					c.ops = c.ops[:0]
					tx.SetLocal(c)
					if _, err := st.RPushTx(tx, st.now(), "l", "x"); err != nil {
						return err
					}
					tx.OnCommit(func() { close(parked); <-release; c.ticket = l.Append(c.ops) })
					return nil
				})
				writer <- c.ticket.Wait()
			}()
			<-parked
			if items, err := do(st, func(tx *stm.Tx, now int64) ([]string, error) { return st.LRangeTx(tx, now, "l", 0, -1) }); err != nil || len(items) != 2 {
				t.Fatalf("list %v (%v): the parked writer's push should be visible", items, err)
			}
			saved := make(chan error, 1)
			go func() { saved <- st.Save(context.Background()) }()
			select {
			case err := <-saved:
				t.Fatalf("Save returned (%v) with a writer of its chunk between CAS and append", err)
			case <-time.After(30 * time.Millisecond):
			}
			close(release)
			for _, ch := range []chan error{writer, writer, saved} {
				if err := <-ch; err != nil {
					t.Fatal(err)
				}
			}
			got := New(stm.New())
			if _, err := wal.Recover(dir, got.Apply); err != nil {
				t.Fatal(err)
			}
			if items, err := do(got, func(tx *stm.Tx, now int64) ([]string, error) { return got.LRangeTx(tx, now, "l", 0, -1) }); err != nil || fmt.Sprint(items) != "[a x]" {
				t.Fatalf("recovered list %v (%v), want [a x]", items, err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
