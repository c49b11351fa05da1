package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"
)

// collect is a recovery sink that flattens records for comparison
// while remembering record boundaries.
type collect struct {
	recs [][]Op
}

func (c *collect) apply(ops []Op) error {
	cp := make([]Op, len(ops))
	copy(cp, ops)
	c.recs = append(c.recs, cp)
	return nil
}

func (c *collect) flat() []Op {
	var out []Op
	for _, r := range c.recs {
		out = append(out, r...)
	}
	return out
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]Op{
		{{Key: "a", Val: "1"}},
		{{Key: "b", Val: "2", ExpireAt: 42}, {Key: "a", Del: true}},
		{{Key: "\x00bin\xff\r\n", Val: string([]byte{0, 1, 2, 255})}},
		{{Key: "", Val: ""}}, // empty key and value are legal
	}
	for _, ops := range want {
		if err := l.Append(ops).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var c collect
	st, err := Recover(dir, c.apply)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c.recs, want) {
		t.Fatalf("recovered %+v, want %+v", c.recs, want)
	}
	if st.Records != len(want) || st.TruncatedBytes != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestAppendEmptyAndAfterClose(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tk := l.Append(nil); tk != (Ticket{}) {
		t.Fatal("empty write set should not be logged")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]Op{{Key: "x", Val: "1"}}).Wait(); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: err = %v, want ErrClosed", err)
	}
	if _, err := l.Rotate(); !errors.Is(err, ErrClosed) {
		t.Fatalf("rotate after close: err = %v, want ErrClosed", err)
	}
}

// TestGroupCommitBatches drives concurrent appends at a disk made slow
// enough (a millisecond per flush) that every writer is back in the
// queue before the flush ahead of it ends, and checks the group commit
// actually grouped: far fewer fsyncs than records.
func TestGroupCommitBatches(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l.SetFlushHook(func(writeSync func() error) error {
		time.Sleep(time.Millisecond)
		return writeSync()
	})
	const writers = 16
	const perW = 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				key := fmt.Sprintf("k%02d", w)
				if err := l.Append([]Op{{Key: key, Val: fmt.Sprint(i)}}).Wait(); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := l.Stats()
	if st.Records() != writers*perW {
		t.Fatalf("records = %d, want %d", st.Records(), writers*perW)
	}
	if st.Fsyncs >= st.Records()/2 {
		t.Fatalf("group commit did not batch: %d fsyncs for %d records", st.Fsyncs, st.Records())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var c collect
	if _, err := Recover(dir, c.apply); err != nil {
		t.Fatal(err)
	}
	// Per-key order must match append order (each writer owns a key).
	last := map[string]int{}
	for _, op := range c.flat() {
		var i int
		fmt.Sscan(op.Val, &i)
		if prev, ok := last[op.Key]; ok && i != prev+1 {
			t.Fatalf("per-key order broken for %s: %d then %d", op.Key, prev, i)
		}
		last[op.Key] = i
	}
	for k, v := range last {
		if v != perW-1 {
			t.Fatalf("key %s recovered through %d, want %d", k, v, perW-1)
		}
	}
}

func TestRotateStartsNewSegment(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]Op{{Key: "a", Val: "1"}}).Wait(); err != nil {
		t.Fatal(err)
	}
	seq, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if seq != 2 {
		t.Fatalf("rotated to segment %d, want 2", seq)
	}
	if err := l.Append([]Op{{Key: "b", Val: "2"}}).Wait(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil || len(segs) != 2 {
		t.Fatalf("segments %v, err %v", segs, err)
	}
	var c collect
	if _, err := Recover(dir, c.apply); err != nil {
		t.Fatal(err)
	}
	want := []Op{{Key: "a", Val: "1"}, {Key: "b", Val: "2"}}
	if !reflect.DeepEqual(c.flat(), want) {
		t.Fatalf("recovered %+v, want %+v", c.flat(), want)
	}
}

// whole is a cut of one chunk: the given ops, at the position the log
// has reached when it runs.
func whole(l *Log, ops ...Op) func(emit func([]Op) error) (Cut, error) {
	return func(emit func([]Op) error) (Cut, error) {
		at := l.Stats().Enqueued
		return Cut{UpTo: at, Reflected: func(_ Op, lsn uint64) bool { return lsn <= at }}, emit(ops)
	}
}

func TestSnapshotTruncatesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// State the snapshot will capture.
	if err := l.Append([]Op{{Key: "a", Val: "1"}, {Key: "b", Val: "2"}}).Wait(); err != nil {
		t.Fatal(err)
	}
	if err := l.Snapshot(whole(l, Op{Key: "a", Val: "1"}, Op{Key: "b", Val: "2"})); err != nil {
		t.Fatal(err)
	}
	// Pre-snapshot segments are reaped; the log continues.
	segs, _ := listSegments(dir)
	if len(segs) != 1 || segs[0].seq != 2 {
		t.Fatalf("segments after snapshot: %+v", segs)
	}
	if st := l.Stats(); st.Snapshots != 1 || st.Segments != 1 || st.SnapshotLast <= 0 || st.SnapshotTail != 0 {
		t.Fatalf("stats after snapshot: %+v", st)
	}
	if err := l.Append([]Op{{Key: "b", Del: true}, {Key: "c", Val: "3"}}).Wait(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var c collect
	st, err := Recover(dir, c.apply)
	if err != nil {
		t.Fatal(err)
	}
	if st.SnapshotOps != 2 || st.Base != 2 || st.Skipped != 0 || st.Records != 1 {
		t.Fatalf("stats %+v", st)
	}
	want := []Op{{Key: "a", Val: "1"}, {Key: "b", Val: "2"}, {Key: "b", Del: true}, {Key: "c", Val: "3"}}
	if !reflect.DeepEqual(c.flat(), want) {
		t.Fatalf("recovered %+v, want %+v", c.flat(), want)
	}
}

// lists is a store of lists for the snapshot tests: pushes are deltas,
// so an op applied twice, or not at all, shows in the result. do
// commits a write set the way the kv store does — state change and
// append under one lock — and chunk cuts some of the keys under the same
// lock, so the position it reports is exact.
type lists struct {
	mu    sync.Mutex
	l     *Log
	state map[string][]string
}

func (s *lists) apply(ops []Op) error {
	for _, op := range ops {
		s.state[op.Key] = append(s.state[op.Key], op.Val)
	}
	return nil
}

func (s *lists) do(t *testing.T, ops ...Op) {
	t.Helper()
	s.mu.Lock()
	s.apply(ops)
	tk := s.l.Append(ops)
	s.mu.Unlock()
	if err := tk.Wait(); err != nil {
		t.Fatal(err)
	}
}

func (s *lists) chunk(emit func([]Op) error, keys ...string) (at uint64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var ops []Op
	for _, k := range keys {
		for _, v := range s.state[k] {
			ops = append(ops, push(k, v))
		}
	}
	return s.l.Stats().Enqueued, emit(ops)
}

func push(key, val string) Op { return Op{Kind: KindList, Key: key, Val: val} }

// TestSnapshotOverlapIsSkipped lands appends between the rotation and
// every chunk and after the last one. A record at or below its key's
// chunk position is in the chunk, one between that and the snapshot's
// position is rolled forward into the file, one above is replayed from
// the log — and recovery, which skips the first two kinds by count,
// applies every push exactly once.
func TestSnapshotOverlapIsSkipped(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := &lists{l: l, state: map[string][]string{}}
	s.do(t, push("l", "e0"))
	s.do(t, push("m", "f0"))
	var upTo uint64
	err = l.Snapshot(func(emit func([]Op) error) (Cut, error) {
		at := map[string]uint64{}
		s.do(t, push("l", "e1")) // after the rotation, in l's chunk
		if at["l"], err = s.chunk(emit, "l"); err != nil {
			return Cut{}, err
		}
		s.do(t, push("m", "f1"), push("l", "e2")) // in m's chunk; behind l's: rolled forward
		if at["m"], err = s.chunk(emit, "m"); err != nil {
			return Cut{}, err
		}
		s.do(t, push("m", "f2")) // behind every chunk: replayed
		upTo = at["m"]
		return Cut{UpTo: upTo, Reflected: func(op Op, lsn uint64) bool { return lsn <= at[op.Key] }}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.SnapshotTail != 2 {
		t.Fatalf("roll-forward read %d records back, want 2 (e1; f1+e2)", st.SnapshotTail)
	}
	s.do(t, push("l", "e3"))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got := &lists{state: map[string][]string{}}
	st, err := Recover(dir, got.apply)
	if err != nil {
		t.Fatal(err)
	}
	if st.Skipped != 2 || st.Records != 2 {
		t.Fatalf("recovery skipped %d records and applied %d, want 2 and 2: %+v", st.Skipped, st.Records, st)
	}
	if !reflect.DeepEqual(got.state, s.state) {
		t.Fatalf("recovered %v, want %v (every push exactly once)", got.state, s.state)
	}

	// The snapshot was published after the skipped records were on
	// disk; a log without them is not a shorter history, it is damage.
	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments %v, err %v", segs, err)
	}
	if err := os.Remove(segs[0].path); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(dir, (&collect{}).apply); err == nil {
		t.Fatal("recovery accepted a log that lacks records its snapshot covers")
	}
}

// TestSnapshotTailIsFiltered: one record writes two keys, one whose
// chunk is already cut and one whose chunk is cut afterwards. Only the
// first op belongs in the roll-forward; the second is in its chunk.
func TestSnapshotTailIsFiltered(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := &lists{l: l, state: map[string][]string{}}
	s.do(t, push("a", "a0"))
	s.do(t, push("b", "b0"))
	err = l.Snapshot(func(emit func([]Op) error) (Cut, error) {
		at := map[string]uint64{}
		if at["a"], err = s.chunk(emit, "a"); err != nil {
			return Cut{}, err
		}
		s.do(t, push("a", "a1"), push("b", "b1"))
		if at["b"], err = s.chunk(emit, "b"); err != nil {
			return Cut{}, err
		}
		return Cut{UpTo: at["b"], Reflected: func(op Op, lsn uint64) bool { return lsn <= at[op.Key] }}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var c collect
	st, err := Recover(dir, c.apply)
	if err != nil {
		t.Fatal(err)
	}
	want := []Op{push("a", "a0"), push("b", "b0"), push("b", "b1"), push("a", "a1")}
	if !reflect.DeepEqual(c.flat(), want) {
		t.Fatalf("snapshot body %+v, want %+v (chunk a, chunk b, then a1 alone)", c.flat(), want)
	}
	if st.SnapshotOps != 4 || st.Skipped != 1 || st.Records != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestRecoverV1Snapshot recovers a directory as the previous format
// left it: a v1 snapshot (base only), a leftover segment below the base
// and two above it. Every record from the base on is applied.
func TestRecoverV1Snapshot(t *testing.T) {
	dir := t.TempDir()
	header := binary.AppendUvarint(append([]byte("stmkv-snapshot-v1"), 0), 2)
	snap := appendFrame(nil, header)
	snap = appendFrame(snap, appendRecord(nil, []Op{{Key: "a", Val: "1"}, push("l", "e0")}))
	files := map[string][]byte{
		snapshotName:   snap,
		segmentName(1): appendFrame(nil, appendRecord(nil, []Op{{Key: "a", Val: "stale"}})),
		segmentName(2): appendFrame(nil, appendRecord(nil, []Op{push("l", "e1")})),
		segmentName(3): appendFrame(nil, appendRecord(nil, []Op{{Key: "a", Del: true}})),
	}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var c collect
	st, err := Recover(dir, c.apply)
	if err != nil {
		t.Fatal(err)
	}
	want := []Op{{Key: "a", Val: "1"}, push("l", "e0"), push("l", "e1"), {Key: "a", Del: true}}
	if !reflect.DeepEqual(c.flat(), want) {
		t.Fatalf("recovered %+v, want %+v", c.flat(), want)
	}
	if st.SnapshotOps != 2 || st.Base != 2 || st.Skipped != 0 || st.Records != 2 {
		t.Fatalf("stats %+v", st)
	}
	// The other direction is refused, not misread: a v1 reader checks
	// for its own magic at the head of the header payload.
	if v2 := snapshotHeader(2, 0)[frameHeader:]; bytes.HasPrefix(v2, header[:len("stmkv-snapshot-v1")+1]) {
		t.Fatal("a v2 header passes a v1 reader's magic check")
	}
}

func TestSnapshotCutErrorLeavesLogUsable(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]Op{{Key: "a", Val: "1"}}).Wait(); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("cut failed")
	err = l.Snapshot(func(emit func([]Op) error) (Cut, error) {
		return Cut{}, errors.Join(emit([]Op{{Key: "a", Val: "1"}}), boom)
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotTemp)); !os.IsNotExist(err) {
		t.Fatalf("abandoned snapshot left its side file behind (stat: %v)", err)
	}
	// The rotation happened but nothing was reaped; everything still
	// recovers.
	if err := l.Append([]Op{{Key: "b", Val: "2"}}).Wait(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var c collect
	if _, err := Recover(dir, c.apply); err != nil {
		t.Fatal(err)
	}
	want := []Op{{Key: "a", Val: "1"}, {Key: "b", Val: "2"}}
	if !reflect.DeepEqual(c.flat(), want) {
		t.Fatalf("recovered %+v, want %+v", c.flat(), want)
	}
}

func TestRecoverTruncatesTornTail(t *testing.T) {
	for _, tail := range [][]byte{
		{0x7f},                                 // lone garbage byte
		{1, 0, 0, 0},                           // half a header
		{5, 0, 0, 0, 1, 2, 3, 4},               // header, no payload
		make([]byte, 64),                       // preallocated zero region
		{255, 255, 255, 255, 0, 0, 0, 0, 9, 9}, // oversize length
	} {
		t.Run(fmt.Sprintf("% x", tail), func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Append([]Op{{Key: "a", Val: "1"}}).Wait(); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			seg := filepath.Join(dir, segmentName(1))
			f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(tail); err != nil {
				t.Fatal(err)
			}
			f.Close()

			var c collect
			st, err := Recover(dir, c.apply)
			if err != nil {
				t.Fatal(err)
			}
			if st.TruncatedBytes != int64(len(tail)) {
				t.Fatalf("truncated %d bytes, want %d", st.TruncatedBytes, len(tail))
			}
			want := []Op{{Key: "a", Val: "1"}}
			if !reflect.DeepEqual(c.flat(), want) {
				t.Fatalf("recovered %+v, want %+v", c.flat(), want)
			}
			// The truncation is physical: a second recovery is clean.
			var c2 collect
			st2, err := Recover(dir, c2.apply)
			if err != nil {
				t.Fatal(err)
			}
			if st2.TruncatedBytes != 0 || !reflect.DeepEqual(c2.flat(), want) {
				t.Fatalf("second recovery: stats %+v ops %+v", st2, c2.flat())
			}
		})
	}
}

func TestRecoverRejectsMidLogCorruption(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]Op{{Key: "a", Val: "1"}}).Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]Op{{Key: "b", Val: "2"}}).Wait(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt segment 1 — not the final segment.
	seg := filepath.Join(dir, segmentName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var c collect
	if _, err := Recover(dir, c.apply); err == nil {
		t.Fatal("mid-log corruption must fail recovery, not truncate")
	}
}

func TestOpenAfterRecoverStartsFreshSegment(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]Op{{Key: "a", Val: "1"}}).Wait(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var c collect
	if _, err := Recover(dir, c.apply); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := l2.Stats().Segment; got != 2 {
		t.Fatalf("reopened on segment %d, want 2", got)
	}
	if err := l2.Append([]Op{{Key: "b", Val: "2"}}).Wait(); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	var c2 collect
	if _, err := Recover(dir, c2.apply); err != nil {
		t.Fatal(err)
	}
	want := []Op{{Key: "a", Val: "1"}, {Key: "b", Val: "2"}}
	if !reflect.DeepEqual(c2.flat(), want) {
		t.Fatalf("recovered %+v, want %+v", c2.flat(), want)
	}
}

func TestRecordTooLarge(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	huge := []Op{{Key: "k", Val: string(make([]byte, MaxRecord+1))}}
	if err := l.Append(huge).Wait(); !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("err = %v, want ErrRecordTooLarge", err)
	}
	// The log is not poisoned by an oversize record.
	if err := l.Append([]Op{{Key: "k", Val: "small"}}).Wait(); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Dropped != 1 {
		t.Fatalf("dropped = %d, want 1", st.Dropped)
	}
}

// TestTicketsAckInEnqueueOrder pins the guarantee a holder of several
// tickets relies on to wait on the oldest only: when any ticket is
// done, every ticket enqueued before it is done too — a record refused
// for its size included, which acks in its turn, not ahead of the
// batch it was queued in.
func TestTicketsAckInEnqueueOrder(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// Held until every waiter is up, so the whole sequence shares batches.
	_, release := l.HoldFlushes()
	huge := []Op{{Key: "k", Val: string(make([]byte, MaxRecord+1))}}
	const n = 200
	tickets := make([]Ticket, n)
	for i := range tickets {
		ops := []Op{{Key: "k", Val: strconv.Itoa(i)}}
		if i%100 == 50 {
			ops = huge
		}
		tickets[i] = l.Append(ops)
	}
	var wg sync.WaitGroup
	for i := range tickets {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := tickets[i].Wait()
			if want := i%100 == 50; errors.Is(err, ErrRecordTooLarge) != want || (!want && err != nil) {
				t.Errorf("ticket %d: err = %v", i, err)
			}
			for j := 0; j < i; j++ {
				if !tickets[j].Done() {
					t.Errorf("ticket %d acked before ticket %d", i, j)
					return
				}
			}
		}(i)
	}
	close(release)
	wg.Wait()
}

// poisonAtRotate makes the log's next rotation fail — the next
// segment's name is taken — which poisons the log like a failed write
// or fsync would.
func poisonAtRotate(t *testing.T, l *Log) {
	t.Helper()
	name := filepath.Join(l.Dir(), segmentName(l.Stats().Segment+1))
	if err := os.WriteFile(name, nil, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestFailureIsSticky: the first failure fails every ticket behind it,
// in the same batch or enqueued later, and the records ahead of it are
// acked clean — so whoever waits on its oldest ticket learns of the
// failure no later than it would have by waiting on each.
func TestFailureIsSticky(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	poisonAtRotate(t, l)
	entered, release := l.HoldFlushes()
	before := l.Append([]Op{{Key: "a", Val: "1"}})
	<-entered
	rotated := make(chan error, 1)
	go func() {
		_, err := l.Rotate()
		rotated <- err
	}()
	// The rotation is ordered behind the first record, ahead of the next.
	for l.Rotations() == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	behind := l.Append([]Op{{Key: "b", Val: "2"}})
	l.AppendAsync([]Op{{Key: "c", Val: "3"}}) // ack-less appends fail quietly
	close(release)
	if err := before.Wait(); err != nil {
		t.Fatalf("record ahead of the failure: %v", err)
	}
	rerr := <-rotated
	if rerr == nil {
		t.Fatal("rotation onto a taken segment name succeeded")
	}
	if err := behind.Wait(); !errors.Is(err, rerr) && err.Error() != rerr.Error() {
		t.Fatalf("record behind the failure: err = %v, want %v", err, rerr)
	}
	later := l.Append([]Op{{Key: "d", Val: "4"}})
	if !later.Done() || later.Wait() == nil {
		t.Fatalf("append on a poisoned log: done %v", later.Done())
	}
	l.AppendAsync([]Op{{Key: "e", Val: "5"}})
	if l.Err() == nil {
		t.Fatal("Err() = nil on a poisoned log")
	}
	l.Close()
	var c collect
	if _, err := Recover(dir, c.apply); err != nil {
		t.Fatal(err)
	}
	if want := []Op{{Key: "a", Val: "1"}}; !reflect.DeepEqual(c.flat(), want) {
		t.Fatalf("recovered %+v, want %+v", c.flat(), want)
	}
}

// TestAppendAsyncAllocs: an append frames its record into the log's
// buffer and allocates nothing of its own — no ticket, no channel.
func TestAppendAsyncAllocs(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// The logger is held through the measurement, so the pending buffer
	// only grows; its doublings amortise to nothing.
	_, release := l.HoldFlushes()
	defer close(release)
	ops := []Op{{Key: "k", Val: "v"}}
	if n := testing.AllocsPerRun(2000, func() { l.AppendAsync(ops) }); n != 0 {
		t.Fatalf("AppendAsync: %v allocs, want 0", n)
	}
}

// TestAppendWaitAllocs: in steady state a durable append — frame, wake
// the logger, swap buffers, write, fsync, advance the watermark, wake
// the waiter — allocates nothing on either goroutine.
func TestAppendWaitAllocs(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ops := []Op{{Key: "k", Val: "v"}}
	n := testing.AllocsPerRun(100, func() {
		if err := l.Append(ops).Wait(); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Fatalf("Append+Wait: %v allocs, want 0", n)
	}
}

// TestFlushDrainsQueue pins the self-clocking: with one flush held at
// the disk, n appends from several goroutines queue behind it, and the
// moment it ends the logger takes all n as exactly one further batch —
// the fsync in flight was their group-commit window — and acks them in
// LSN order.
func TestFlushDrainsQueue(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	entered, release := l.HoldFlushes()
	first := l.Append([]Op{{Key: "first", Val: "v"}})
	<-entered
	const writers, perW = 8, 16
	tickets := make([]Ticket, writers*perW)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				tickets[w*perW+i] = l.Append([]Op{{Key: "k" + strconv.Itoa(w), Val: strconv.Itoa(i)}})
			}
		}(w)
	}
	wg.Wait()
	if st := l.Stats(); st.Enqueued != writers*perW+1 || st.Durable != 0 || st.Batches != 0 {
		t.Fatalf("behind a held flush: %+v", st)
	}
	if first.Done() {
		t.Fatal("ticket done while its flush is held")
	}
	sort.Slice(tickets, func(i, j int) bool { return tickets[i].lsn < tickets[j].lsn })
	for i := range tickets {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := tickets[i].Wait(); err != nil {
				t.Errorf("ticket %d: %v", i, err)
			}
			if !first.Done() || (i > 0 && !tickets[i-1].Done()) {
				t.Errorf("LSN %d acked before its predecessor", tickets[i].lsn)
			}
		}(i)
	}
	close(release)
	wg.Wait()
	st := l.Stats()
	if st.Batches != 2 || st.Fsyncs != 2 || st.Durable != st.Enqueued {
		t.Fatalf("%d appends behind one held flush: %+v, want 2 batches in all", writers*perW, st)
	}
	if sizes := l.BatchSizes(); sizes.Quantile(1) < writers*perW {
		t.Fatalf("largest batch carried %v records, want %d", sizes.Quantile(1), writers*perW)
	}
}

// TestLoneAppendIsOneFsync: a writer with nobody to share with pays one
// fsync per record and waits on nothing else.
func TestLoneAppendIsOneFsync(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const k = 20
	for i := 0; i < k; i++ {
		if err := l.Append([]Op{{Key: "k", Val: strconv.Itoa(i)}}).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if st := l.Stats(); st.Batches != k || st.Fsyncs != k || st.Records() != k {
		t.Fatalf("%d sequential appends: %+v, want one batch and one fsync each", k, st)
	}
}

// BenchmarkAppendSync prices a lone durable append against the floor it
// should sit on: the same bytes written and fsynced to a bare file in
// the same directory.
func BenchmarkAppendSync(b *testing.B) {
	ops := []Op{{Key: "key:000042", Val: "0123456789abcdef0123456789abcdef"}}
	b.Run("wal", func(b *testing.B) {
		l, err := Open(b.TempDir(), Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer l.Close()
		for b.Loop() {
			if err := l.Append(ops).Wait(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bare", func(b *testing.B) {
		f, err := os.Create(filepath.Join(b.TempDir(), "bare.log"))
		if err != nil {
			b.Fatal(err)
		}
		defer f.Close()
		rec := appendFrame(nil, appendRecord(nil, ops))
		for b.Loop() {
			if _, err := f.Write(rec); err != nil {
				b.Fatal(err)
			}
			if err := f.Sync(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func TestRecoverMissingDir(t *testing.T) {
	var c collect
	st, err := Recover(filepath.Join(t.TempDir(), "nope"), c.apply)
	if err != nil || len(c.recs) != 0 || st.Base != 1 {
		t.Fatalf("missing dir: stats %+v err %v", st, err)
	}
}

// TestTelemetry: fsync latency and batch-size histograms fill in as
// batches flush, queue depth reads zero at rest, and Err stays nil on
// a healthy log.
func TestTelemetry(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	for i := 0; i < n; i++ {
		if err := l.Append([]Op{{Key: fmt.Sprintf("k%d", i), Val: "v"}}).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	lat := l.FsyncLatency()
	if lat.Count() != uint64(st.Fsyncs) {
		t.Fatalf("fsync latency count = %d, want %d (one sample per fsync)", lat.Count(), st.Fsyncs)
	}
	if lat.Quantile(1) <= 0 {
		t.Fatalf("fsync p100 = %v, want positive", lat.Quantile(1))
	}
	sizes := l.BatchSizes()
	if sizes.Count() != uint64(st.Batches) {
		t.Fatalf("batch size count = %d, want %d", sizes.Count(), st.Batches)
	}
	if got := int64(sizes.Sum()); got != st.Records() {
		t.Fatalf("batch sizes sum to %d records, want %d", got, st.Records())
	}
	if st.QueueDepth() != 0 || st.Enqueued != n {
		t.Fatalf("at rest: queue depth %d, enqueued %d, want 0 and %d", st.QueueDepth(), st.Enqueued, n)
	}
	if l.Err() != nil {
		t.Fatalf("healthy log Err() = %v", l.Err())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}
