package kv

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/stm"
	"repro/internal/wal"
)

// TestHashOps exercises the hash contract: create-on-write, field
// overwrite vs create, HGETALL completeness, HINCRBY arithmetic and
// errors, and auto-delete on the last HDEL.
func TestHashOps(t *testing.T) {
	var ok bool
	st := New(stm.New())
	if created, err := do(st, func(tx *stm.Tx, now int64) (bool, error) { return st.HSetTx(tx, now, "h", "f1", "a") }); err != nil || !created {
		t.Fatalf("HSet fresh = %v, %v; want true, nil", created, err)
	}
	if created, err := do(st, func(tx *stm.Tx, now int64) (bool, error) { return st.HSetTx(tx, now, "h", "f1", "b") }); err != nil || created {
		t.Fatalf("HSet overwrite = %v, %v; want false, nil", created, err)
	}
	if v, err := do(st, func(tx *stm.Tx, now int64) (v string, err error) { v, ok, err = st.HGetTx(tx, now, "h", "f1"); return }); err != nil || !ok || v != "b" {
		t.Fatalf("HGet = %q, %v, %v; want \"b\", true, nil", v, ok, err)
	}
	if _, err := do(st, func(tx *stm.Tx, now int64) (v string, err error) {
		v, ok, err = st.HGetTx(tx, now, "h", "nope")
		return
	}); err != nil || ok {
		t.Fatalf("HGet absent field = %v, %v; want false, nil", ok, err)
	}
	if _, err := do(st, func(tx *stm.Tx, now int64) (v string, err error) {
		v, ok, err = st.HGetTx(tx, now, "missing", "f")
		return
	}); err != nil || ok {
		t.Fatalf("HGet absent key = %v, %v; want false, nil", ok, err)
	}
	// Enough fields to force in-transaction table growth.
	for i := 0; i < 64; i++ {
		if _, err := do(st, func(tx *stm.Tx, now int64) (bool, error) {
			return st.HSetTx(tx, now, "h", fmt.Sprintf("k%02d", i), strconv.Itoa(i))
		}); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := do(st, func(tx *stm.Tx, now int64) (int, error) { return st.HLenTx(tx, now, "h") }); err != nil || n != 65 {
		t.Fatalf("HLen = %d, %v; want 65, nil", n, err)
	}
	pairs, err := do(st, func(tx *stm.Tx, now int64) ([]KV, error) { return st.HGetAllTx(tx, now, "h") })
	if err != nil || len(pairs) != 65 {
		t.Fatalf("HGetAll = %d pairs, %v; want 65", len(pairs), err)
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].K < pairs[j].K })
	if pairs[0].K != "f1" || pairs[0].V != "b" {
		t.Fatalf("HGetAll missing f1=b: %v", pairs[0])
	}
	if n, err := do(st, func(tx *stm.Tx, now int64) (int64, error) { return st.HIncrTx(tx, now, "h", "ctr", 5) }); err != nil || n != 5 {
		t.Fatalf("HIncr fresh = %d, %v; want 5, nil", n, err)
	}
	if n, err := do(st, func(tx *stm.Tx, now int64) (int64, error) { return st.HIncrTx(tx, now, "h", "ctr", -7) }); err != nil || n != -2 {
		t.Fatalf("HIncr = %d, %v; want -2, nil", n, err)
	}
	if _, err := do(st, func(tx *stm.Tx, now int64) (int64, error) { return st.HIncrTx(tx, now, "h", "f1", 1) }); !errors.Is(err, ErrNotInteger) {
		t.Fatalf("HIncr on non-integer = %v; want ErrNotInteger", err)
	}
	if n, err := do(st, func(tx *stm.Tx, now int64) (int, error) { return st.HDelTx(tx, now, "h", "f1", "nope", "ctr") }); err != nil || n != 2 {
		t.Fatalf("HDel = %d, %v; want 2, nil", n, err)
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Auto-delete: removing every field removes the key.
	names := make([]string, 0, 64)
	for i := 0; i < 64; i++ {
		names = append(names, fmt.Sprintf("k%02d", i))
	}
	if n, err := do(st, func(tx *stm.Tx, now int64) (int, error) { return st.HDelTx(tx, now, "h", names...) }); err != nil || n != 64 {
		t.Fatalf("HDel all = %d, %v; want 64, nil", n, err)
	}
	if _, err := do(st, func(tx *stm.Tx, now int64) (v string, err error) { v, ok, err = st.TypeTx(tx, now, "h"); return }); err != nil || ok {
		t.Fatalf("Type after emptying hash = %v, %v; want absent", ok, err)
	}
	if n, err := do(st, st.lenTx); err != nil || n != 0 {
		t.Fatalf("Len = %d, %v; want 0", n, err)
	}
}

// TestListOps exercises the list contract: push order at both ends,
// pop order, LRANGE rank semantics including negatives, and
// auto-delete on the last pop.
func TestListOps(t *testing.T) {
	var ok bool
	st := New(stm.New())
	if n, err := st.RPush("l", "a", "b"); err != nil || n != 2 {
		t.Fatalf("RPush = %d, %v; want 2, nil", n, err)
	}
	if n, err := do(st, func(tx *stm.Tx, now int64) (int, error) { return st.LPushTx(tx, now, "l", "c", "d") }); err != nil || n != 4 {
		t.Fatalf("LPush = %d, %v; want 4, nil", n, err)
	}
	// LPUSH c then d: d is frontmost → d c a b
	want := []string{"d", "c", "a", "b"}
	if items, err := do(st, func(tx *stm.Tx, now int64) ([]string, error) { return st.LRangeTx(tx, now, "l", 0, -1) }); err != nil || fmt.Sprint(items) != fmt.Sprint(want) {
		t.Fatalf("LRange(0,-1) = %v, %v; want %v", items, err, want)
	}
	if items, err := do(st, func(tx *stm.Tx, now int64) ([]string, error) { return st.LRangeTx(tx, now, "l", 1, 2) }); err != nil || fmt.Sprint(items) != fmt.Sprint([]string{"c", "a"}) {
		t.Fatalf("LRange(1,2) = %v, %v; want [c a]", items, err)
	}
	if items, err := do(st, func(tx *stm.Tx, now int64) ([]string, error) { return st.LRangeTx(tx, now, "l", -2, -1) }); err != nil || fmt.Sprint(items) != fmt.Sprint([]string{"a", "b"}) {
		t.Fatalf("LRange(-2,-1) = %v, %v; want [a b]", items, err)
	}
	if items, err := do(st, func(tx *stm.Tx, now int64) ([]string, error) { return st.LRangeTx(tx, now, "l", 2, 1) }); err != nil || len(items) != 0 {
		t.Fatalf("LRange(2,1) = %v, %v; want empty", items, err)
	}
	if items, err := do(st, func(tx *stm.Tx, now int64) ([]string, error) { return st.LRangeTx(tx, now, "l", 0, 99) }); err != nil || len(items) != 4 {
		t.Fatalf("LRange(0,99) = %v, %v; want all 4", items, err)
	}
	if v, err := do(st, func(tx *stm.Tx, now int64) (v string, err error) { v, ok, err = st.LPopTx(tx, now, "l"); return }); err != nil || !ok || v != "d" {
		t.Fatalf("LPop = %q, %v, %v; want \"d\"", v, ok, err)
	}
	if v, err := do(st, func(tx *stm.Tx, now int64) (v string, err error) { v, ok, err = st.RPopTx(tx, now, "l"); return }); err != nil || !ok || v != "b" {
		t.Fatalf("RPop = %q, %v, %v; want \"b\"", v, ok, err)
	}
	if n, err := do(st, func(tx *stm.Tx, now int64) (int, error) { return st.LLenTx(tx, now, "l") }); err != nil || n != 2 {
		t.Fatalf("LLen = %d, %v; want 2", n, err)
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"c", "a"} {
		if v, err := do(st, func(tx *stm.Tx, now int64) (v string, err error) { v, ok, err = st.LPopTx(tx, now, "l"); return }); err != nil || !ok || v != w {
			t.Fatalf("LPop = %q, %v, %v; want %q", v, ok, err, w)
		}
	}
	if _, err := do(st, func(tx *stm.Tx, now int64) (v string, err error) { v, ok, err = st.LPopTx(tx, now, "l"); return }); err != nil || ok {
		t.Fatalf("LPop empty = %v, %v; want absent", ok, err)
	}
	if n, err := do(st, st.lenTx); err != nil || n != 0 {
		t.Fatalf("list not auto-deleted: Len = %d, %v", n, err)
	}
}

// TestListPushBatchMatchesSingles checks that one LPUSH or RPUSH of
// 70 values, which the deque lays out as whole runs, leaves the list
// LRANGE reads as 70 one-value pushes do, into a list of 1 element and
// into one of 40.
func TestListPushBatchMatchesSingles(t *testing.T) {
	vals := make([]string, 70)
	for i := range vals {
		vals[i] = fmt.Sprintf("v%02d", i)
	}
	lrange := func(st *Store) []string {
		t.Helper()
		items, err := do(st, func(tx *stm.Tx, now int64) ([]string, error) { return st.LRangeTx(tx, now, "l", 0, -1) })
		if err != nil {
			t.Fatal(err)
		}
		if err := st.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return items
	}
	for _, base := range []int{1, 40} {
		for _, front := range []bool{true, false} {
			push := func(st *Store, vals ...string) {
				t.Helper()
				_, err := do(st, func(tx *stm.Tx, now int64) (int, error) {
					if front {
						return st.LPushTx(tx, now, "l", vals...)
					}
					return st.RPushTx(tx, now, "l", vals...)
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			batched, single := New(stm.New()), New(stm.New())
			for _, st := range []*Store{batched, single} {
				if _, err := st.RPush("l", makeKeys(base)...); err != nil {
					t.Fatal(err)
				}
			}
			push(batched, vals...)
			for _, v := range vals {
				push(single, v)
			}
			got, want := lrange(batched), lrange(single)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("front=%v onto %d: one push of 70 gives\n%v\n70 pushes give\n%v", front, base, got, want)
			}
		}
	}
}

// TestApplyMergesListPushes replays a log in which list pushes come in
// stretches (a snapshot's back-pushes, LPUSH and RPUSH records) broken
// by other keys, by the other end, by pops and by a touch, once as one
// write set, where Apply merges each stretch into one push, and once op
// by op, where it cannot. The two stores must hold the same state.
func TestApplyMergesListPushes(t *testing.T) {
	push := func(key string, front bool, vals ...string) []wal.Op {
		var ops []wal.Op
		for _, v := range vals {
			ops = append(ops, wal.Op{Kind: wal.KindList, Key: key, Val: v, Front: front})
		}
		return ops
	}
	var ops []wal.Op
	ops = append(ops, push("a", false, makeKeys(300)...)...)
	ops = append(ops, push("a", true, "f1", "f2", "f3")...)
	ops = append(ops, push("b", true, makeKeys(70)...)...)
	ops = append(ops, push("a", true, "f4")...)
	ops = append(ops, wal.Op{Kind: wal.KindList, Key: "a", Del: true, Front: true})
	ops = append(ops, push("a", true, "f5", "f6")...)
	ops = append(ops, wal.Op{Kind: wal.KindList, Key: "b", Del: true})
	ops = append(ops, push("b", false, "b1", "b2")...)
	ops = append(ops, wal.Op{Key: "a", Touch: true, ExpireAt: int64(time.Hour)})
	ops = append(ops, push("a", false, "tail")...)
	ops = append(ops, wal.Op{Key: "s", Val: "string"})

	merged, single := New(stm.New()), New(stm.New())
	if err := merged.Apply(ops); err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		if err := single.Apply([]wal.Op{op}); err != nil {
			t.Fatal(err)
		}
	}
	for _, st := range []*Store{merged, single} {
		if err := st.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	got, err := merged.SnapshotOps()
	if err != nil {
		t.Fatal(err)
	}
	want, err := single.SnapshotOps()
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(sortOps(got)) != fmt.Sprint(sortOps(want)) {
		t.Fatalf("merged replay:\n%+v\nop-by-op replay:\n%+v", got, want)
	}
	if n, err := do(merged, func(tx *stm.Tx, now int64) (int, error) { return merged.LLenTx(tx, now, "a") }); err != nil || n != 300+3+1-1+2+1 {
		t.Fatalf("LLen(a) = %d, %v; want %d", n, err, 300+3+1-1+2+1)
	}
}

// TestZSetOps exercises the sorted-set contract: score order with
// member tie-break, relocation on re-add, same-score no-op, negative
// and infinite scores, ZRANGE ranks, and auto-delete.
func TestZSetOps(t *testing.T) {
	var ok bool
	st := New(stm.New())
	adds := []struct {
		member string
		score  float64
	}{
		{"b", 2}, {"a", 2}, {"neg", -1.5}, {"inf", math.Inf(1)}, {"lo", math.Inf(-1)}, {"z", 0.25},
	}
	for _, ad := range adds {
		if added, err := do(st, func(tx *stm.Tx, now int64) (bool, error) { return st.ZAddTx(tx, now, "zs", ad.member, ad.score) }); err != nil || !added {
			t.Fatalf("ZAdd(%q) = %v, %v; want true, nil", ad.member, added, err)
		}
	}
	if _, err := do(st, func(tx *stm.Tx, now int64) (bool, error) { return st.ZAddTx(tx, now, "zs", "nan", math.NaN()) }); !errors.Is(err, ErrNotFloat) {
		t.Fatalf("ZAdd NaN = %v; want ErrNotFloat", err)
	}
	if added, err := do(st, func(tx *stm.Tx, now int64) (bool, error) { return st.ZAddTx(tx, now, "zs", "a", 2) }); err != nil || added {
		t.Fatalf("ZAdd same score = %v, %v; want false, nil", added, err)
	}
	entries, err := do(st, func(tx *stm.Tx, now int64) ([]ZEntry, error) { return st.ZRangeTx(tx, now, "zs", 0, -1) })
	if err != nil {
		t.Fatal(err)
	}
	order := make([]string, len(entries))
	for i, e := range entries {
		order[i] = e.Member
	}
	want := []string{"lo", "neg", "z", "a", "b", "inf"} // ties (a,b @2) by member
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("ZRange order = %v, want %v", order, want)
	}
	if s, err := do(st, func(tx *stm.Tx, now int64) (v float64, err error) {
		v, ok, err = st.ZScoreTx(tx, now, "zs", "neg")
		return
	}); err != nil || !ok || s != -1.5 {
		t.Fatalf("ZScore(neg) = %v, %v, %v; want -1.5", s, ok, err)
	}
	// Relocate: a moves past b.
	if added, err := do(st, func(tx *stm.Tx, now int64) (bool, error) { return st.ZAddTx(tx, now, "zs", "a", 3) }); err != nil || added {
		t.Fatalf("ZAdd relocate = %v, %v; want false, nil", added, err)
	}
	entries, _ = do(st, func(tx *stm.Tx, now int64) ([]ZEntry, error) { return st.ZRangeTx(tx, now, "zs", 3, 4) })
	if len(entries) != 2 || entries[0].Member != "b" || entries[1].Member != "a" {
		t.Fatalf("ZRange(3,4) after relocate = %v; want [b a]", entries)
	}
	if n, err := do(st, func(tx *stm.Tx, now int64) (int, error) { return st.ZCardTx(tx, now, "zs") }); err != nil || n != 6 {
		t.Fatalf("ZCard = %d, %v; want 6", n, err)
	}
	// -0 and +0 are the same score: re-adding z at -0 is a no-op.
	if added, err := do(st, func(tx *stm.Tx, now int64) (bool, error) { return st.ZAddTx(tx, now, "zs", "z", math.Copysign(0, -1)) }); err != nil {
		t.Fatal(err)
	} else if added {
		t.Fatal("ZAdd(-0) after 0.25: added = true, want relocate")
	}
	if s, _ := do(st, func(tx *stm.Tx, now int64) (v float64, err error) {
		v, ok, err = st.ZScoreTx(tx, now, "zs", "z")
		return
	}); !ok || s != 0 || math.Signbit(s) {
		t.Fatalf("ZScore(z) = %v; want +0", s)
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if n, err := do(st, func(tx *stm.Tx, now int64) (int, error) { return st.ZRemTx(tx, now, "zs", "a", "ghost", "b") }); err != nil || n != 2 {
		t.Fatalf("ZRem = %d, %v; want 2", n, err)
	}
	if n, err := do(st, func(tx *stm.Tx, now int64) (int, error) { return st.ZRemTx(tx, now, "zs", "lo", "neg", "z", "inf") }); err != nil || n != 4 {
		t.Fatalf("ZRem rest = %d, %v; want 4", n, err)
	}
	if n, err := do(st, st.lenTx); err != nil || n != 0 {
		t.Fatalf("zset not auto-deleted: Len = %d, %v", n, err)
	}
}

// TestZRemOpensTowerNotIndex: removing one member of a 1 000-member
// sorted set costs the skip-list search and the tower's unlinking, not
// a count of the member index (at least 128 buckets by then) to learn
// that the set is not empty.
func TestZRemOpensTowerNotIndex(t *testing.T) {
	st := New(stm.New())
	for i := 0; i < 1000; i++ {
		if _, err := do(st, func(tx *stm.Tx, now int64) (bool, error) {
			return st.ZAddTx(tx, now, "zs", fmt.Sprintf("m%d", i), float64(i))
		}); err != nil {
			t.Fatal(err)
		}
	}
	commits, opens := opensPerCommit(t, st, func() {
		if n, err := do(st, func(tx *stm.Tx, now int64) (int, error) { return st.ZRemTx(tx, now, "zs", "m500") }); err != nil || n != 1 {
			t.Fatalf("ZRem = %d, %v; want 1", n, err)
		}
	})
	if commits != 1 || opens > 100 {
		t.Fatalf("ZRem of one member: %d commits, %.0f opens; want 1 commit of at most 100 opens", commits, opens)
	}
	if n, err := do(st, func(tx *stm.Tx, now int64) (int, error) { return st.ZCardTx(tx, now, "zs") }); err != nil || n != 999 {
		t.Fatalf("ZCard = %d, %v; want 999", n, err)
	}
}

// TestWrongTypeSemantics pins the Redis type matrix: typed commands
// against a key of another kind fail with ErrWrongType, SET overwrites
// anything, MGet reads container keys as absent, DEL/TYPE/EXPIRE/TTL
// are kind-agnostic.
func TestWrongTypeSemantics(t *testing.T) {
	var ok bool
	clk := &fakeClock{}
	st := New(stm.New(), WithClock(clk.now))
	if err := st.Set("s", "v"); err != nil {
		t.Fatal(err)
	}
	if _, err := do(st, func(tx *stm.Tx, now int64) (bool, error) { return st.HSetTx(tx, now, "s", "f", "v") }); !errors.Is(err, ErrWrongType) {
		t.Fatalf("HSet on string = %v; want ErrWrongType", err)
	}
	if _, err := do(st, func(tx *stm.Tx, now int64) (int, error) { return st.LPushTx(tx, now, "s", "v") }); !errors.Is(err, ErrWrongType) {
		t.Fatalf("LPush on string = %v; want ErrWrongType", err)
	}
	if _, err := do(st, func(tx *stm.Tx, now int64) (bool, error) { return st.ZAddTx(tx, now, "s", "m", 1) }); !errors.Is(err, ErrWrongType) {
		t.Fatalf("ZAdd on string = %v; want ErrWrongType", err)
	}
	if _, err := do(st, func(tx *stm.Tx, now int64) (bool, error) { return st.HSetTx(tx, now, "s", "f", "v") }); !errors.Is(err, ErrWrongType) {
		t.Fatalf("HSet on string = %v; want ErrWrongType", err)
	}
	if _, err := st.RPush("l", "x"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Get("l"); !errors.Is(err, ErrWrongType) {
		t.Fatalf("Get on list = %v; want ErrWrongType", err)
	}
	if _, err := st.Incr("l", 1); !errors.Is(err, ErrWrongType) {
		t.Fatalf("Incr on list = %v; want ErrWrongType", err)
	}
	if _, err := do(st, func(tx *stm.Tx, now int64) (string, error) { v, _, err := st.HGetTx(tx, now, "l", "f"); return v, err }); !errors.Is(err, ErrWrongType) {
		t.Fatalf("HGet on list = %v; want ErrWrongType", err)
	}
	if _, err := do(st, func(tx *stm.Tx, now int64) (int, error) { return st.ZCardTx(tx, now, "l") }); !errors.Is(err, ErrWrongType) {
		t.Fatalf("ZCard on list = %v; want ErrWrongType", err)
	}
	// MGet never errors on type: the list key reads as absent.
	vals, present, err := st.MGet("s", "l", "ghost")
	if err != nil {
		t.Fatal(err)
	}
	if !present[0] || vals[0] != "v" || present[1] || present[2] {
		t.Fatalf("MGet = %v %v; want [v absent absent]", vals, present)
	}
	// TYPE names every kind.
	if _, err := do(st, func(tx *stm.Tx, now int64) (bool, error) { return st.HSetTx(tx, now, "h", "f", "v") }); err != nil {
		t.Fatal(err)
	}
	if _, err := do(st, func(tx *stm.Tx, now int64) (bool, error) { return st.ZAddTx(tx, now, "zs", "m", 1) }); err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]string{"s": "string", "l": "list", "h": "hash", "zs": "zset"} {
		if typ, err := do(st, func(tx *stm.Tx, now int64) (v string, err error) { v, ok, err = st.TypeTx(tx, now, key); return }); err != nil || !ok || typ != want {
			t.Fatalf("Type(%s) = %q, %v, %v; want %q", key, typ, ok, err, want)
		}
	}
	// SET overwrites any kind, Redis-style.
	if err := st.Set("l", "now a string"); err != nil {
		t.Fatal(err)
	}
	if typ, _ := do(st, func(tx *stm.Tx, now int64) (string, error) { v, _, err := st.TypeTx(tx, now, "l"); return v, err }); typ != "string" {
		t.Fatalf("Type after SET over list = %q; want string", typ)
	}
	// EXPIRE/TTL attach to the whole key whatever its kind.
	if ok, err := do(st, func(tx *stm.Tx, now int64) (bool, error) { return st.ExpireTx(tx, now, "h", time.Second) }); err != nil || !ok {
		t.Fatalf("Expire on hash = %v, %v; want true, nil", ok, err)
	}
	if d, err := do(st, func(tx *stm.Tx, now int64) (v time.Duration, err error) { v, ok, err = st.TTLTx(tx, now, "h"); return }); err != nil || !ok || d <= 0 {
		t.Fatalf("TTL on hash = %v, %v, %v; want positive", d, ok, err)
	}
	clk.advance(2 * time.Second)
	if _, _ = do(st, func(tx *stm.Tx, now int64) (v string, err error) { v, ok, err = st.HGetTx(tx, now, "h", "f"); return }); ok {
		t.Fatal("hash field readable after whole-key expiry")
	}
	if typ, _ := do(st, func(tx *stm.Tx, now int64) (v string, err error) { v, ok, err = st.TypeTx(tx, now, "h"); return }); ok {
		t.Fatalf("Type of expired hash = %q; want absent", typ)
	}
	// DEL removes containers whole.
	if n, err := st.Del("zs"); err != nil || n != 1 {
		t.Fatalf("Del(zs) = %d, %v; want 1", n, err)
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCrossTypeConservation is the satellite's conservation hammer: N
// promoter goroutines move jobs from a list through a zset into a
// done-hash — each move one transaction spanning all three containers
// — while a concurrent auditor repeatedly takes consistent snapshots
// asserting the invariant: every job is in exactly one place and the
// total never changes.
func TestCrossTypeConservation(t *testing.T) {
	const (
		jobs      = 120
		promoters = 8
		auditors  = 2
	)
	s := stm.New(stm.WithManagerFactory(core.MustFactory("greedy")), stm.WithInterleavePeriod(4))
	st := New(s, WithShards(4), withBuckets(2))
	for i := 0; i < jobs; i++ {
		if _, err := st.RPush("pending", fmt.Sprintf("job-%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	audit := func() (int, error) {
		total := 0
		err := st.Atomically(func(tx *stm.Tx, now int64) error {
			// Sum in a per-attempt local, capture whole (txpure).
			sum, err := st.LLenTx(tx, now, "pending")
			if err != nil {
				return err
			}
			n, err := st.ZCardTx(tx, now, "active")
			if errors.Is(err, ErrWrongType) {
				return fmt.Errorf("active key has wrong type")
			}
			if err != nil {
				return err
			}
			sum += n
			done, err := st.HGetAllTx(tx, now, "done")
			if err != nil {
				return err
			}
			total = sum + len(done)
			return nil
		})
		return total, err
	}
	var wg sync.WaitGroup
	errs := make([]error, promoters+auditors)
	stop := make(chan struct{})
	for g := 0; g < promoters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(g)+1, 7))
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Draw the op choice and score before the transaction:
				// a retry replays the same decision (txpure).
				promote := rng.Int64N(2) == 0
				score := float64(rng.Int64N(100))
				err := st.Atomically(func(tx *stm.Tx, now int64) error {
					// Promote: pending list → active zset, or complete:
					// active zset → done hash. Either way one transaction
					// touches two containers.
					if promote {
						job, ok, err := st.LPopTx(tx, now, "pending")
						if err != nil || !ok {
							return err
						}
						_, err = st.ZAddTx(tx, now, "active", job, score)
						return err
					}
					entries, err := st.ZRangeTx(tx, now, "active", 0, 0)
					if err != nil || len(entries) == 0 {
						return err
					}
					if _, err := st.ZRemTx(tx, now, "active", entries[0].Member); err != nil {
						return err
					}
					_, err = st.HSetTx(tx, now, "done", entries[0].Member, "1")
					return err
				})
				if err != nil {
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
			for {
				select {
				case <-stop:
					return
				default:
				}
				total, err := audit()
				if err != nil {
					errs[promoters+a] = err
					return
				}
				if total != jobs {
					errs[promoters+a] = fmt.Errorf("consistent snapshot counted %d jobs, want %d", total, jobs)
					return
				}
			}
		}(a)
	}
	// Let the storm run until every job is done or a tripwire fires.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		n, err := do(st, func(tx *stm.Tx, now int64) (int, error) { return st.HLenTx(tx, now, "done") })
		if err != nil {
			break
		}
		bad := false
		for _, e := range errs {
			if e != nil {
				bad = true
			}
		}
		if n == jobs || bad {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	total, err := audit()
	if err != nil || total != jobs {
		t.Fatalf("final audit = %d, %v; want %d", total, err, jobs)
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestTypedWALRoundTrip writes every value kind (with a TTL on one
// container), crashes without a clean close, recovers into a fresh
// store, and requires exact state equality via canonical snapshots —
// the unit-level version of the crash smoke's acceptance criterion.
func TestTypedWALRoundTrip(t *testing.T) {
	var ok bool
	dir := t.TempDir()
	clk := &fakeClock{}
	clk.advance(time.Hour)
	st := New(stm.New(), WithClock(clk.now))
	l := openTestWAL(t, dir)
	st.AttachWAL(l)

	if err := st.Set("plain", "v"); err != nil {
		t.Fatal(err)
	}
	if err := st.SetTTL("leased", "x", time.Hour); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := do(st, func(tx *stm.Tx, now int64) (bool, error) {
			return st.HSetTx(tx, now, "h", fmt.Sprintf("f%d", i), strconv.Itoa(i))
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := do(st, func(tx *stm.Tx, now int64) (int, error) { return st.HDelTx(tx, now, "h", "f3") }); err != nil {
		t.Fatal(err)
	}
	if _, err := st.RPush("l", "a", "b", "c"); err != nil {
		t.Fatal(err)
	}
	if _, err := do(st, func(tx *stm.Tx, now int64) (int, error) { return st.LPushTx(tx, now, "l", "front") }); err != nil {
		t.Fatal(err)
	}
	if _, err := do(st, func(tx *stm.Tx, now int64) (string, error) { v, _, err := st.RPopTx(tx, now, "l"); return v, err }); err != nil {
		t.Fatal(err)
	}
	for i, m := range []string{"x", "y", "z"} {
		if _, err := do(st, func(tx *stm.Tx, now int64) (bool, error) { return st.ZAddTx(tx, now, "zs", m, float64(i)*1.5-1) }); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := do(st, func(tx *stm.Tx, now int64) (bool, error) { return st.ZAddTx(tx, now, "zs", "x", 99) }); err != nil { // relocate
		t.Fatal(err)
	}
	if _, err := do(st, func(tx *stm.Tx, now int64) (int, error) { return st.ZRemTx(tx, now, "zs", "y") }); err != nil {
		t.Fatal(err)
	}
	if ok, err := do(st, func(tx *stm.Tx, now int64) (bool, error) { return st.ExpireTx(tx, now, "zs", time.Hour) }); err != nil || !ok {
		t.Fatalf("Expire(zs) = %v, %v", ok, err)
	}
	// A container created then fully drained must stay absent after
	// replay (auto-delete replays through the same code path).
	if _, err := st.RPush("ghost", "only"); err != nil {
		t.Fatal(err)
	}
	if _, err := do(st, func(tx *stm.Tx, now int64) (string, error) { v, _, err := st.LPopTx(tx, now, "ghost"); return v, err }); err != nil {
		t.Fatal(err)
	}

	want, err := st.SnapshotOps()
	if err != nil {
		t.Fatal(err)
	}
	// Crash: no clean close; reopen the directory and replay.
	fresh := New(stm.New(), WithClock(clk.now))
	if _, err := wal.Recover(dir, fresh.Apply); err != nil {
		t.Fatal(err)
	}
	got, err := fresh.SnapshotOps()
	if err != nil {
		t.Fatal(err)
	}
	wantS, gotS := sortOps(want), sortOps(got)
	if len(wantS) != len(gotS) {
		t.Fatalf("restored %d ops, want %d\n got: %+v\nwant: %+v", len(gotS), len(wantS), gotS, wantS)
	}
	for i := range wantS {
		if wantS[i] != gotS[i] {
			t.Fatalf("op %d differs:\n got: %+v\nwant: %+v", i, gotS[i], wantS[i])
		}
	}
	if _, _ = do(fresh, func(tx *stm.Tx, now int64) (v string, err error) { v, ok, err = fresh.TypeTx(tx, now, "ghost"); return }); ok {
		t.Fatal("drained list resurrected by replay")
	}
	if typ, _ := do(fresh, func(tx *stm.Tx, now int64) (v string, err error) { v, ok, err = fresh.TypeTx(tx, now, "zs"); return }); !ok || typ != "zset" {
		t.Fatalf("zset lost: %q, %v", typ, ok)
	}
	if d, _ := do(fresh, func(tx *stm.Tx, now int64) (v time.Duration, err error) {
		v, ok, err = fresh.TTLTx(tx, now, "zs")
		return
	}); !ok || d <= 0 {
		t.Fatalf("zset TTL lost: %v, %v", d, ok)
	}
	if err := fresh.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	l.Close()
}
