package kv

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/resp"
	"repro/internal/stm"
	"repro/internal/wal"
)

// These tests pin the reply path. The TestDurablePipeline ones pin the
// durable pipeline: a connection's buffered frames execute back to back
// and share a group commit, replies leave in order and never before
// their record is on disk; they run against a store logging to
// t.TempDir(). The TestReplyBatch ones pin the batch: released replies
// go out together, but never stay behind while the handler sleeps. All
// of them run over real TCP; CI runs them by name under -race.

// setFlushHook installs h as l's flush hook: internal/wal's one test
// seam, which runs in place of each flush's segment write + fsync and
// is handed that step. The field is unexported and wal's export_test.go
// serves wal's own tests only, so from here it is reached by address —
// until ROADMAP item 2(c) gives the log an injectable filesystem. Call
// it before the log sees traffic.
func setFlushHook(l *wal.Log, h func(writeSync func() error) error) {
	f := reflect.ValueOf(l).Elem().FieldByName("flushHook")
	*(*func(func() error) error)(unsafe.Pointer(f.UnsafeAddr())) = h
}

// gateFlushes makes each of l's flushes wait at the disk for one value
// on the returned channel: nil lets it through, an error fails it with
// that error. A send returns once the logger has a flush waiting, so
// whatever was appended before it is either in that flush or queued
// behind it.
func gateFlushes(l *wal.Log) chan<- error {
	gate := make(chan error)
	setFlushHook(l, func(writeSync func() error) error {
		if err := <-gate; err != nil {
			return err
		}
		return writeSync()
	})
	return gate
}

// appended waits until n records have been appended to l — durable or
// not — or the log has failed.
func appended(t *testing.T, l *wal.Log, n uint64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); l.Err() == nil && l.Stats().Enqueued < n; {
		if time.Now().After(deadline) {
			t.Fatalf("log never saw %d records: %+v", n, l.Stats())
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// holdOneFlush parks l's logger at the disk with one record that is
// nobody's reply (a direct store write), so that everything the test
// then sends queues behind a flush in flight — the state group commit
// batches in. The logger stays there until the gate is fed.
func holdOneFlush(t *testing.T, st *Store, l *wal.Log) (gate chan<- error, primed <-chan error) {
	t.Helper()
	gate = gateFlushes(l)
	done := make(chan error, 1)
	go func() { done <- st.Set("flush-in-flight", "v") }()
	appended(t, l, 1)
	return gate, done
}

// durableServer starts a server on a fresh store logging to a fresh
// directory.
func durableServer(t *testing.T, opts ...ServerOption) (*Server, *wal.Log, string, func()) {
	t.Helper()
	l, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var clk fakeClock
	st := New(stm.New(), WithClock(clk.now))
	st.AttachWAL(l)
	srv, addr, stop := startServerWith(t, st, opts...)
	return srv, l, addr, func() {
		stop()
		l.Close() // poisoned on purpose in some tests
	}
}

// frame encodes one command as an array of bulk strings.
func frame(words ...string) []byte {
	var b bytes.Buffer
	w := resp.NewWriter(&b)
	w.Array(len(words))
	for _, word := range words {
		w.Bulk(word)
	}
	w.Flush()
	return b.Bytes()
}

// frames encodes space-separated commands, one frame each.
func frames(cmds ...string) []byte {
	var b []byte
	for _, cmd := range cmds {
		b = append(b, frame(strings.Fields(cmd)...)...)
	}
	return b
}

// pipeConn is a raw connection plus the one reply reader that may read
// from it (the reader buffers ahead).
type pipeConn struct {
	net.Conn
	r *resp.Reader
}

func dialPipe(t *testing.T, addr string) *pipeConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &pipeConn{conn, resp.NewReader(conn)}
}

func (c *pipeConn) send(t *testing.T, b []byte) {
	t.Helper()
	if _, err := c.Write(b); err != nil {
		t.Fatal(err)
	}
}

// replies reads n replies and returns each one's wire form.
func (c *pipeConn) replies(t *testing.T, n int) []string {
	t.Helper()
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		c.SetReadDeadline(time.Now().Add(10 * time.Second))
		v, err := c.r.ReadReply()
		if err != nil {
			t.Fatalf("reply %d of %d: %v (read so far: %q)", i, n, err, out)
		}
		var b bytes.Buffer
		w := resp.NewWriter(&b)
		w.Value(v)
		w.Flush()
		out = append(out, b.String())
	}
	return out
}

// expectEOF checks that the server hung up after the replies read so
// far.
func (c *pipeConn) expectEOF(t *testing.T) {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(10 * time.Second))
	if v, err := c.r.ReadReply(); err != io.EOF {
		t.Fatalf("after the last reply: read %+v, err %v; want EOF", v, err)
	}
}

// TestDurablePipelineTranscript: a burst written with one Write gets
// the reply transcript the same commands get one at a time — same
// replies, same order, and a QUIT or a protocol error at the end still
// comes after every reply before it.
func TestDurablePipelineTranscript(t *testing.T) {
	mixed := []string{
		"SET a 1", "GET a", "INCR a", "INCR n", "GET n", "DEL a missing", "GET a",
		"MULTI", "SET x 10", "INCRBY x 5", "GET x", "EXEC", "GET x",
		"SET text abc", "INCR text", "NOSUCH", "GET",
		"MULTI", "INCR text", "EXEC", "GET text",
		"RPUSH l a b", "LPOP l", "HSET h f v", "HGET h f", "ZADD z 1 m", "ZRANGE z 0 -1 WITHSCORES",
		"MULTI", "SET y 1", "DISCARD", "GET y", "DBSIZE",
	}
	for _, sc := range []struct {
		name   string
		cmds   []string
		tail   string // raw bytes after the commands
		extra  int    // replies the tail adds
		hangup bool
	}{
		{name: "mixed", cmds: mixed},
		{name: "quit", cmds: append(mixed[:7:7], "QUIT"), hangup: true},
		{name: "protocol error", cmds: mixed[:7], tail: "*1\r\n:1\r\n", extra: 1, hangup: true},
	} {
		t.Run(sc.name, func(t *testing.T) {
			run := func(burst bool) []string {
				_, _, addr, stop := durableServer(t, withSlowlog(-1, 0))
				defer stop()
				conn := dialPipe(t, addr)
				var got []string
				if burst {
					conn.send(t, append(frames(sc.cmds...), sc.tail...))
					got = conn.replies(t, len(sc.cmds)+sc.extra)
				} else {
					for _, cmd := range sc.cmds {
						conn.send(t, frames(cmd))
						got = append(got, conn.replies(t, 1)...)
					}
					if sc.tail != "" {
						conn.send(t, []byte(sc.tail))
						got = append(got, conn.replies(t, sc.extra)...)
					}
				}
				if sc.hangup {
					conn.expectEOF(t)
				}
				return got
			}
			single, burst := run(false), run(true)
			for i := range single {
				if single[i] != burst[i] {
					t.Fatalf("reply %d: one at a time %q, in a burst %q", i, single[i], burst[i])
				}
			}
		})
	}
}

// TestDurablePipelineSharesFsyncs: 64 SETs pipelined on one connection
// behind a flush in flight are all executed while it lasts and ride the
// next one together — two fsyncs in all, not one each.
func TestDurablePipelineSharesFsyncs(t *testing.T) {
	srv, l, addr, stop := durableServer(t)
	defer stop()
	gate, primed := holdOneFlush(t, srv.store, l)
	conn := dialPipe(t, addr)
	const n = 64
	var burst []byte
	for i := 0; i < n; i++ {
		burst = append(burst, frame("SET", "k"+strconv.Itoa(i), "v")...)
	}
	conn.send(t, burst)
	appended(t, l, n+1)
	if st := l.Stats(); st.Durable != 0 || st.Fsyncs != 0 {
		t.Fatalf("behind a held flush: %+v", st)
	}
	gate <- nil // the flush in flight
	gate <- nil // everything that queued behind it
	for i, got := range conn.replies(t, n) {
		if got != ok {
			t.Fatalf("reply %d = %q", i, got)
		}
	}
	if err := <-primed; err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Records() != n+1 || st.Fsyncs != 2 || st.Batches != 2 {
		t.Fatalf("%d pipelined SETs behind one flush in flight: %+v, want 2 fsyncs", n, st)
	}
}

// TestDurablePipelineWALFailure: the log fails while a connection has
// writes executed and unanswered. The ones whose records reached the
// disk first are answered +OK, every one behind the failure is
// answered with the log's error — never +OK, never silence — reads
// still answer, and the handler exits cleanly.
func TestDurablePipelineWALFailure(t *testing.T) {
	srv, l, addr, stop := durableServer(t)
	defer stop()
	// Every flush waits for the test: the first half reaches the disk,
	// then the log fails with the second half executed and in flight.
	gate, primed := holdOneFlush(t, srv.store, l)
	conn := dialPipe(t, addr)
	const half = 8
	sets := func(from int) []byte {
		var b []byte
		for i := from; i < from+half; i++ {
			b = append(b, frame("SET", "k"+strconv.Itoa(i), "v")...)
		}
		return b
	}
	conn.send(t, sets(0))
	appended(t, l, 1+half)
	gate <- nil // the flush in flight
	gate <- nil // the first half, which queued behind it
	// The handler reads on once the first half is answered.
	conn.send(t, append(sets(half), frame("GET", "k0")...))
	appended(t, l, 1+2*half)
	gate <- errors.New("injected fsync failure")
	replies := conn.replies(t, 2*half+1)
	if err := <-primed; err != nil {
		t.Fatal(err)
	}
	for i, got := range replies[:half] {
		if got != ok {
			t.Errorf("reply %d (record ahead of the failure) = %q, want +OK", i, got)
		}
	}
	for i, got := range replies[half : 2*half] {
		if !strings.HasPrefix(got, "-ERR internal: kv: wal: ") {
			t.Errorf("reply %d (record behind the failure) = %q, want the log's error", half+i, got)
		}
	}
	if got := replies[2*half]; got != "$1\r\nv\r\n" {
		t.Errorf("GET behind the failed writes = %q", got)
	}
	// The connection is still in step, and hangs up when asked.
	conn.send(t, frames("SET late v", "QUIT"))
	tail := conn.replies(t, 2)
	if !strings.HasPrefix(tail[0], "-ERR internal: kv: wal: ") || tail[1] != ok {
		t.Errorf("after the failure: SET, QUIT = %q", tail)
	}
	conn.expectEOF(t)
}

// TestDurablePipelinePartialFrame: three whole SETs and half of a
// fourth arrive; the three replies must come back before the client
// sends the rest — a half-received frame holds nothing hostage.
func TestDurablePipelinePartialFrame(t *testing.T) {
	_, _, addr, stop := durableServer(t)
	defer stop()
	conn := dialPipe(t, addr)
	fourth := frame("SET", "k4", "v")
	cut := len(fourth) / 2
	conn.send(t, append(frames("SET k1 v", "SET k2 v", "SET k3 v"), fourth[:cut]...))
	for i, got := range conn.replies(t, 3) {
		if got != ok {
			t.Fatalf("reply %d = %q", i, got)
		}
	}
	conn.send(t, fourth[cut:])
	if got := conn.replies(t, 1)[0]; got != ok {
		t.Fatalf("fourth reply = %q", got)
	}
}

// TestDurablePipelineWindowBound: a client pipelines 10 000 writes
// without reading a reply. The server never holds more than
// replyWindow executed requests unanswered, and once the client reads,
// every reply is there, in order.
func TestDurablePipelineWindowBound(t *testing.T) {
	srv, _, addr, stop := durableServer(t)
	defer stop()
	conn := dialPipe(t, addr)
	const n = 10000
	burst := bytes.Repeat(frame("INCR", "n"), n)
	wrote := make(chan error, 1)
	go func() {
		_, err := conn.Write(burst)
		wrote <- err
	}()
	// Executed minus released, sampled while the burst drains: commits
	// first, so that the difference can only underestimate.
	released := &srv.sm.cmds[lookupCommand("INCR").idx].calls
	engine := srv.store.STM()
	held := func() int64 { return engine.TotalStats().Commits - released.Load() }
	// Not reading: the replies (under 60 kB in all) fit the socket
	// buffers, so the server runs the whole burst regardless.
	var peak int64
	for deadline := time.Now().Add(60 * time.Second); released.Load() < n; {
		if h := held(); h > peak {
			peak = h
		}
		if time.Now().After(deadline) {
			t.Fatalf("server released %d of %d replies", released.Load(), n)
		}
		time.Sleep(20 * time.Microsecond)
	}
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
	// One more than the window: the request being executed while the
	// handler makes room for it.
	if peak > replyWindow+1 {
		t.Errorf("%d executed requests held unanswered, window is %d", peak, replyWindow)
	}
	if peak < 2 {
		t.Errorf("at most %d requests in flight: the burst was not pipelined", peak)
	}
	for i, got := range conn.replies(t, n) {
		if want := ":" + strconv.Itoa(i+1) + "\r\n"; got != want {
			t.Fatalf("reply %d = %q, want %q", i, got, want)
		}
	}
}

// TestDurablePipelineAbandon: connections reset and the server closes
// while handlers hold executed writes the log has not flushed yet. A
// write capture must not return to the pool while the logger can still
// read it: if one does, its next owner overwrites a record on its way
// to the disk — the race detector may see that, and the log certainly
// shows it, since what it replays to is then not what the store holds.
func TestDurablePipelineAbandon(t *testing.T) {
	dir := t.TempDir()
	// The logger flushes batch after batch while the handlers execute, so
	// at any instant a connection's window holds acked replies with
	// unflushed writes behind them — the state in which a dying socket
	// makes the handler walk away from tickets.
	l, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := New(stm.New())
	st.AttachWAL(l)
	for round := 0; round < 8; round++ {
		_, addr, stop := startServerWith(t, st)
		const clients, depth = 4, 16 * replyWindow
		var writers sync.WaitGroup
		conns := make([]net.Conn, clients)
		for c := range conns {
			if conns[c], err = net.Dial("tcp", addr); err != nil {
				t.Fatal(err)
			}
			defer conns[c].Close()
			var burst []byte
			for i := 0; i < depth; i++ {
				burst = append(burst, frame("SET", fmt.Sprintf("r%d:c%d:k%d", round, c, i), "v")...)
			}
			writers.Add(1)
			go func(conn net.Conn) {
				defer writers.Done()
				_, _ = conn.Write(burst) // cut short by the close below, on purpose
			}(conns[c])
		}
		// Let the handlers get into their stride, then pull the rug: half
		// the clients vanish, then the server closes on the rest.
		before := l.Stats().Records()
		for deadline := time.Now().Add(5 * time.Second); l.Stats().Records() < before+int64(round+1)*replyWindow && time.Now().Before(deadline); {
			time.Sleep(50 * time.Microsecond)
		}
		for _, conn := range conns[:clients/2] {
			conn.Close()
		}
		time.Sleep(time.Duration(round) * 200 * time.Microsecond) // vary where the server's close lands
		stop()
		writers.Wait()
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	replayed := New(stm.New())
	if _, err := wal.Recover(dir, replayed.Apply); err != nil {
		t.Fatal(err)
	}
	want, err := st.SnapshotOps()
	if err != nil {
		t.Fatal(err)
	}
	got, err := replayed.SnapshotOps()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || !reflect.DeepEqual(sortOps(got), sortOps(want)) {
		t.Fatalf("the log replays to %d keys, the store holds %d: a record was overwritten on its way to the disk", len(got), len(want))
	}
}

// TestDurablePipelineLatencyIncludesWait: a command's recorded latency
// runs from request read to reply released, so on a durable server it
// includes the wait for the flush — here one made to take 50 ms — for a
// SET, and for a GET whose reply queues behind one, and on a memory-only
// server it does not. (Half the flush is the line: the GET is read a
// moment after the logger starts on the SET.) The two transactions'
// commit latency (stm_commit_seconds) ends at their commits, so it
// excludes the flush either way.
func TestDurablePipelineLatencyIncludesWait(t *testing.T) {
	const window = 50 * time.Millisecond
	check := func(t *testing.T, srv *Server, addr string, durable bool) {
		conn := dialPipe(t, addr)
		conn.send(t, frames("SET k v", "GET k"))
		if got := conn.replies(t, 2); got[0] != ok || got[1] != "$1\r\nv\r\n" {
			t.Fatalf("replies = %q", got)
		}
		entries := srv.slow.get(-1)
		if len(entries) != 2 {
			t.Fatalf("slowlog holds %d entries, want 2", len(entries))
		}
		for _, e := range entries {
			if waited := e.e.dur >= window/2; waited != durable {
				t.Errorf("%s recorded %v; a flush takes %v, durable %v", e.e.args[0], e.e.dur, window, durable)
			}
		}
		for _, name := range []string{"SET", "GET"} {
			lat := srv.sm.cmds[lookupCommand(name).idx].lat.Snapshot()
			if waited := lat.Sum() >= window/2; lat.Count() != 1 || waited != durable {
				t.Errorf("%s histogram: %d samples, sum %v; a flush takes %v, durable %v", name, lat.Count(), lat.Sum(), window, durable)
			}
		}
		if lat := srv.sm.commitLat.Snapshot(); lat.Count() != 2 || lat.Sum() >= window/2 {
			t.Errorf("commit latency: %d samples, sum %v; want 2 that exclude a %v flush", lat.Count(), lat.Sum(), window)
		}
	}
	t.Run("durable", func(t *testing.T) {
		srv, l, addr, stop := durableServer(t, withSlowlog(0, 16))
		defer stop()
		setFlushHook(l, func(writeSync func() error) error {
			time.Sleep(window)
			return writeSync()
		})
		check(t, srv, addr, true)
	})
	t.Run("memory", func(t *testing.T) {
		srv, addr, stop := startServerWith(t, New(stm.New()), withSlowlog(0, 16))
		defer stop()
		check(t, srv, addr, false)
	})
}

// TestReplyBatchSends: the replies to what one socket read brought in
// leave in one send. Sixteen GETs in one client write are one send,
// sixteen sent one at a time are sixteen, and a MULTI block sent whole
// is one.
func TestReplyBatchSends(t *testing.T) {
	srv, addr, stop := startServerWith(t, New(stm.New()))
	defer stop()
	gets := make([]string, 16)
	for i := range gets {
		gets[i] = "GET k" + strconv.Itoa(i)
	}
	for _, tc := range []struct {
		name  string
		cmds  []string
		burst bool
		want  []string // nil: every reply is the null bulk
		sends int64
	}{
		{name: "pipelined", cmds: gets, burst: true, sends: 1},
		{name: "depth 1", cmds: gets, sends: 16},
		{
			name: "multi", cmds: []string{"MULTI", "INCRBY a 5", "INCRBY b -5", "EXEC"}, burst: true,
			want: []string{ok, "+QUEUED\r\n", "+QUEUED\r\n", "*2\r\n:5\r\n:-5\r\n"}, sends: 1,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn := dialPipe(t, addr)
			before := srv.sm.replyFlushes.Load()
			var got []string
			if tc.burst {
				conn.send(t, frames(tc.cmds...))
				got = conn.replies(t, len(tc.cmds))
			} else {
				for _, cmd := range tc.cmds {
					conn.send(t, frames(cmd))
					got = append(got, conn.replies(t, 1)...)
				}
			}
			for i, g := range got {
				want := "$-1\r\n"
				if tc.want != nil {
					want = tc.want[i]
				}
				if g != want {
					t.Fatalf("reply %d = %q, want %q", i, g, want)
				}
			}
			if sends := srv.sm.replyFlushes.Load() - before; sends != tc.sends {
				t.Fatalf("%d replies took %d sends, want %d", len(got), sends, tc.sends)
			}
		})
	}
}

// TestReplyBatchPartialFrame: on a memory-only server, a whole GET and
// the start of a second frame arrive; the GET's reply must come back
// before the client sends the rest — the batch goes out before the
// handler reads again.
func TestReplyBatchPartialFrame(t *testing.T) {
	_, addr, stop := startServerWith(t, New(stm.New()))
	defer stop()
	conn := dialPipe(t, addr)
	conn.send(t, []byte("GET a\r\n*2\r\n$3\r\nGE"))
	if got := conn.replies(t, 1)[0]; got != "$-1\r\n" {
		t.Fatalf("GET a = %q", got)
	}
	conn.send(t, []byte("T\r\n$1\r\nb\r\n"))
	if got := conn.replies(t, 1)[0]; got != "$-1\r\n" {
		t.Fatalf("GET b = %q", got)
	}
}

// TestReplyBatchBeforeFsyncWait: GET k and SET k v arrive in one write
// at a durable server whose fsync is stalled. The GET's reply is
// released at once, and the handler must send it before it sleeps on
// the SET's record, not keep it in the batch until the disk answers.
func TestReplyBatchBeforeFsyncWait(t *testing.T) {
	_, l, addr, stop := durableServer(t)
	defer stop()
	gate := gateFlushes(l)
	defer close(gate) // lets every flush through, should the test fail holding one
	conn := dialPipe(t, addr)
	conn.send(t, frames("GET k", "SET k v"))
	if got := conn.replies(t, 1)[0]; got != "$-1\r\n" {
		t.Fatalf("GET k = %q", got)
	}
	if st := l.Stats(); st.Enqueued != 1 || st.Durable != 0 {
		t.Fatalf("GET answered with the log at %+v, want the SET appended and not durable", st)
	}
	gate <- nil
	if got := conn.replies(t, 1)[0]; got != ok {
		t.Fatalf("SET k v = %q", got)
	}
}

// TestReplyBatchLargeReply: a reply larger than the batch cap leaves
// whole and byte-identical, between the replies around it.
func TestReplyBatchLargeReply(t *testing.T) {
	_, addr, stop := startServerWith(t, New(stm.New()))
	defer stop()
	conn := dialPipe(t, addr)
	var b strings.Builder
	for i := 0; b.Len() < 3*replyBatchCap; i++ {
		b.WriteString(strconv.Itoa(i) + ",")
	}
	big := b.String()
	conn.send(t, append(frame("SET", "big", big), frames("GET big", "PING")...))
	want := ok + "$" + strconv.Itoa(len(big)) + "\r\n" + big + "\r\n+PONG\r\n"
	got := make([]byte, len(want))
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.ReadFull(conn.Conn, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatal("the replies around a reply larger than the batch cap did not arrive byte-identical")
	}
}
