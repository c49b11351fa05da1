package kv

import (
	"fmt"
	"io"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/resp"
	"repro/internal/stm"
)

// memConn is a connection with no kernel under it: each Read hands the
// handler the next part of the batch the test fed it, at most chunk
// bytes at a time (0: no bound), and each Write is one reply — the
// outbox writes its batch to anything but a *net.TCPConn one reply at a
// time — announced on writes and, when keep is set, appended to out.
type memConn struct {
	in     chan []byte
	chunk  int
	left   []byte
	keep   bool
	out    []byte
	writes chan struct{}
	closed chan struct{}
	once   sync.Once
}

func newMemConn(chunk int, keep bool) *memConn {
	return &memConn{
		in:    make(chan []byte),
		chunk: chunk,
		keep:  keep,
		// Room for more replies than any test sends, so a handler that
		// answers more than expected fails the test rather than hanging
		// the server's Close.
		writes: make(chan struct{}, 4096),
		closed: make(chan struct{}),
	}
}

func (c *memConn) Read(p []byte) (int, error) {
	if len(c.left) == 0 {
		select {
		case c.left = <-c.in:
		case <-c.closed:
			return 0, io.EOF
		}
	}
	if c.chunk > 0 && len(p) > c.chunk {
		p = p[:c.chunk]
	}
	n := copy(p, c.left)
	c.left = c.left[n:]
	return n, nil
}

func (c *memConn) Write(p []byte) (int, error) {
	if c.keep {
		c.out = append(c.out, p...)
	}
	c.writes <- struct{}{}
	return len(p), nil
}

// send feeds the handler one batch and waits for its n replies.
func (c *memConn) send(b []byte, n int) {
	c.in <- b
	for range n {
		<-c.writes
	}
}

func (c *memConn) Close() error                     { c.once.Do(func() { close(c.closed) }); return nil }
func (c *memConn) LocalAddr() net.Addr              { return memAddr{} }
func (c *memConn) RemoteAddr() net.Addr             { return memAddr{} }
func (c *memConn) SetDeadline(time.Time) error      { return nil }
func (c *memConn) SetReadDeadline(time.Time) error  { return nil }
func (c *memConn) SetWriteDeadline(time.Time) error { return nil }

type memAddr struct{}

func (memAddr) Network() string { return "mem" }
func (memAddr) String() string  { return "mem" }

// memListener hands Serve one connection, then reports itself closed.
type memListener struct {
	conns chan net.Conn
	done  chan struct{}
}

func (l *memListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *memListener) Close() error   { close(l.done); return nil }
func (l *memListener) Addr() net.Addr { return memAddr{} }

// serveMem serves conn on a server for st through Serve, and returns
// the server and the function that shuts it down.
func serveMem(t *testing.T, st *Store, conn *memConn, opts ...ServerOption) (*Server, func()) {
	t.Helper()
	srv := NewServer(st, opts...)
	ln := &memListener{conns: make(chan net.Conn), done: make(chan struct{})}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	ln.conns <- conn
	return srv, func() {
		if err := srv.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve returned: %v", err)
		}
	}
}

// TestHandlerAllocBudget pins what a pipelined request costs the
// allocator on the whole handler path — decode, lookup, execution,
// observation and the reply batch — by feeding an in-memory connection
// batches of 16 GETs or 16 SETs. A GET borrows its key from the read
// arena and allocates nothing. A SET allocates what the engine does for
// the same SETs (see TestDurableSetAllocBudget; a key behind another in
// its bucket's chain costs a copy of the node ahead of it) plus its key
// and value, which the store keeps. Both hold with the log attached,
// where the SET replies wait in the outbox's window for their fsync.
func TestHandlerAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled sessions at random")
	}
	const n = 16
	var keys, vals []string
	var gets, sets []byte
	for i := range n {
		key, val := fmt.Sprintf("key:%02d", i), fmt.Sprintf("value:%02d", i)
		keys, vals = append(keys, key), append(vals, val)
		gets = append(gets, frame("GET", key)...)
		sets = append(sets, frame("SET", key, val)...)
	}
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) {
			st := New(stm.New())
			if durable {
				l := openTestWAL(t, t.TempDir())
				defer l.Close()
				st.AttachWAL(l)
			}
			engine := testing.AllocsPerRun(100, func() {
				for i := range n {
					p, err := st.commit(func(tx *stm.Tx, now int64) error { return st.SetTx(tx, now, keys[i], vals[i], 0) })
					if err == nil {
						err = p.wait()
					}
					if err != nil {
						t.Fatal(err)
					}
				}
			}) / n
			conn := newMemConn(0, false)
			_, stop := serveMem(t, st, conn)
			defer stop()
			perCommand := func(batch []byte) float64 {
				// Warm up until every window slot has held a request and
				// grown the argv backing it keeps.
				for range replyWindow / n {
					conn.send(batch, n)
				}
				return testing.AllocsPerRun(100, func() { conn.send(batch, n) }) / n
			}
			set := perCommand(sets)
			get := perCommand(gets)
			if get != 0 {
				t.Errorf("GET: %.2f allocs per command, want 0", get)
			}
			if set != engine+2 {
				t.Errorf("SET: %.3f allocs per command, want %.3f (the engine's %.3f, the key and the value)", set, engine+2, engine)
			}
		})
	}
}

// borrowScript exercises every way a request's arguments can outlive
// the read that decoded them: stored keys and values, borrowed reads
// beside them, a MULTI block queued across reads, a reply that echoes
// an argument, an unknown command's name, and — on a durable server —
// replies held in the window while later requests are read.
var borrowScript = []step{
	{send: "SET k1 v1", want: ok},
	{send: "SET k2 v2", want: ok},
	{send: "GET k1", want: "$2\r\nv1\r\n"},
	{send: "MGET k1 k2 nokey", want: "*3\r\n$2\r\nv1\r\n$2\r\nv2\r\n$-1\r\n"},
	{send: "PING hello", want: "$5\r\nhello\r\n"},
	{send: "nosuch arg", want: "-ERR unknown command 'NOSUCH'\r\n"},
	{send: "NOSUCH arg", want: "-ERR unknown command 'NOSUCH'\r\n"},
	{send: "MULTI", want: ok},
	{send: "SET k3 v3", want: queued},
	{send: "GET k3", want: queued},
	{send: "INCR n", want: queued},
	{send: "EXEC", want: "*3\r\n+OK\r\n$2\r\nv3\r\n:1\r\n"},
	{send: "get k3", want: "$2\r\nv3\r\n"},
	{send: "HSET h f1 x1", want: ":1\r\n"},
	{send: "HGET h f1", want: "$2\r\nx1\r\n"},
	{send: "HGETALL h", want: "*2\r\n$2\r\nf1\r\n$2\r\nx1\r\n"},
	{send: "HLEN h", want: ":1\r\n"},
	{send: "RPUSH l a b", want: ":2\r\n"},
	{send: "LRANGE l 0 -1", want: "*2\r\n$1\r\na\r\n$1\r\nb\r\n"},
	{send: "LLEN l", want: ":2\r\n"},
	{send: "ZADD z 1.5 m", want: ":1\r\n"},
	{send: "ZSCORE z m", want: "$3\r\n1.5\r\n"},
	{send: "ZRANGE z 0 -1 WITHSCORES", want: "*2\r\n$1\r\nm\r\n$3\r\n1.5\r\n"},
	{send: "ZCARD z", want: ":1\r\n"},
	{send: "TTL k1", want: ":-1\r\n"},
	{send: "PTTL k1", want: ":-1\r\n"},
	{send: "TYPE h", want: "+hash\r\n"},
	{send: "DBSIZE", want: ":7\r\n"}, // k1 k2 k3 n h l z
	{send: "GET k2", want: "$2\r\nv2\r\n"},
}

// TestBorrowedArgsDoNotEscape runs borrowScript with the reader's
// arena poisoned on every reclaim (resp.SetArenaPoison) and without,
// and requires both runs to give the script's replies and a SLOWLOG of
// exactly the commands sent: an argument kept anywhere past its read —
// the store, a MULTI block, a held reply, a SLOWLOG entry — would read
// as '#' bytes in the poisoned run. SLOWLOG records every command
// (threshold 0) and the flight recorder samples every transaction, on a
// memory-only and on a durable server, with the script sent in one
// write and in 5-byte reads (which refill the read buffer mid-frame).
func TestBorrowedArgsDoNotEscape(t *testing.T) {
	var batch []byte
	var replies strings.Builder
	var logged [][]string
	for _, s := range borrowScript {
		words := strings.Fields(s.send)
		batch = append(batch, frame(words...)...)
		replies.WriteString(s.want)
		words[0] = strings.ToUpper(words[0])
		logged = append(logged, words)
	}
	run := func(t *testing.T, poison, durable bool, chunk int) {
		resp.SetArenaPoison(poison)
		defer resp.SetArenaPoison(false)
		var clk fakeClock
		abortlog := NewAbortLog(128)
		st := New(stm.New(stm.WithTracer(abortlog, 1)), WithClock(clk.now))
		if durable {
			l := openTestWAL(t, t.TempDir())
			defer l.Close()
			st.AttachWAL(l)
		}
		conn := newMemConn(chunk, true)
		srv, stop := serveMem(t, st, conn, withSlowlog(0, 1024), WithAbortLog(abortlog))
		conn.send(batch, len(borrowScript))
		stop()
		if got := string(conn.out); got != replies.String() {
			t.Errorf("poisoned %v: replies\n got %q\nwant %q", poison, got, replies.String())
		}
		var got [][]string
		for _, l := range srv.slow.get(-1) {
			got = append(got, l.e.args)
		}
		slices.Reverse(got) // the ring returns the newest first
		if !slices.EqualFunc(got, logged, slices.Equal) {
			t.Errorf("poisoned %v: SLOWLOG\n got %q\nwant %q", poison, got, logged)
		}
	}
	for _, durable := range []bool{false, true} {
		for _, chunk := range []int{0, 5} {
			t.Run(fmt.Sprintf("durable=%v/chunk=%d", durable, chunk), func(t *testing.T) {
				run(t, false, durable, chunk)
				run(t, true, durable, chunk)
			})
		}
	}
}
