package kv

import (
	"fmt"
	"net"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kvclient"
	"repro/internal/resp"
	"repro/internal/stm"
)

// startServer brings up a server on an ephemeral port and returns its
// address and a shutdown func.
func startServer(t *testing.T, st *Store) (string, func()) {
	t.Helper()
	return serve(t, NewServer(st))
}

// serve runs srv on an ephemeral port and returns its address and a
// shutdown func.
func serve(t *testing.T, srv *Server) (string, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	stop := func() {
		if err := srv.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve returned: %v", err)
		}
	}
	return ln.Addr().String(), stop
}

func dialClient(t *testing.T, addr string) *kvclient.Client {
	t.Helper()
	c, err := kvclient.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// mustDo fails the test on transport errors or error replies.
func mustDo(t *testing.T, c *kvclient.Client, args ...string) resp.Value {
	t.Helper()
	v, err := c.Must(args...)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestServerProtocol drives the full command surface over real TCP:
// every verb, null replies, error replies, inline commands, and the
// MULTI/EXEC/DISCARD state machine including the poisoned-queue path.
func TestServerProtocol(t *testing.T) {
	var clk fakeClock
	st := New(stm.New(), WithClock(clk.now))
	addr, stop := startServer(t, st)
	defer stop()
	c := dialClient(t, addr)
	defer c.Close()

	if v := mustDo(t, c, "PING"); v.Kind != '+' || v.Str != "PONG" {
		t.Fatalf("PING = %+v", v)
	}
	if v := mustDo(t, c, "PING", "hello"); v.Kind != '$' || v.Str != "hello" {
		t.Fatalf("PING hello = %+v", v)
	}
	if v := mustDo(t, c, "SET", "k", "v"); v.Str != "OK" {
		t.Fatalf("SET = %+v", v)
	}
	if v := mustDo(t, c, "GET", "k"); v.Str != "v" {
		t.Fatalf("GET = %+v", v)
	}
	if v := mustDo(t, c, "GET", "missing"); !v.Null {
		t.Fatalf("GET missing = %+v, want null", v)
	}
	if v := mustDo(t, c, "INCR", "n"); v.Int != 1 {
		t.Fatalf("INCR = %+v", v)
	}
	if v := mustDo(t, c, "INCRBY", "n", "41"); v.Int != 42 {
		t.Fatalf("INCRBY = %+v", v)
	}
	if v, err := c.Do("INCR", "k"); err != nil || !v.IsError() || !strings.Contains(v.Str, "not an integer") {
		t.Fatalf("INCR on text = %+v, %v", v, err)
	}
	if v := mustDo(t, c, "MSET", "a", "1", "b", "2"); v.Str != "OK" {
		t.Fatalf("MSET = %+v", v)
	}
	v := mustDo(t, c, "MGET", "a", "nope", "b")
	if len(v.Elems) != 3 || v.Elems[0].Str != "1" || !v.Elems[1].Null || v.Elems[2].Str != "2" {
		t.Fatalf("MGET = %+v", v)
	}
	if v := mustDo(t, c, "DEL", "a", "nope"); v.Int != 1 {
		t.Fatalf("DEL = %+v", v)
	}
	if v := mustDo(t, c, "DBSIZE"); v.Int != 3 { // k, n, b
		t.Fatalf("DBSIZE = %+v", v)
	}

	// Expiry over the wire, against the injected clock.
	if v := mustDo(t, c, "SET", "tmp", "x", "PX", "500"); v.Str != "OK" {
		t.Fatalf("SET PX = %+v", v)
	}
	if v := mustDo(t, c, "PTTL", "tmp"); v.Int != 500 {
		t.Fatalf("PTTL = %+v", v)
	}
	if v := mustDo(t, c, "TTL", "tmp"); v.Int != 1 { // 500ms rounds up
		t.Fatalf("TTL = %+v", v)
	}
	if v := mustDo(t, c, "TTL", "k"); v.Int != -1 {
		t.Fatalf("TTL no-expiry = %+v", v)
	}
	if v := mustDo(t, c, "TTL", "ghost"); v.Int != -2 {
		t.Fatalf("TTL missing = %+v", v)
	}
	clk.advance(600 * time.Millisecond)
	if v := mustDo(t, c, "GET", "tmp"); !v.Null {
		t.Fatalf("GET after expiry = %+v", v)
	}
	if v := mustDo(t, c, "EXPIRE", "k", "100"); v.Int != 1 {
		t.Fatalf("EXPIRE = %+v", v)
	}
	if v := mustDo(t, c, "EXPIRE", "ghost", "100"); v.Int != 0 {
		t.Fatalf("EXPIRE ghost = %+v", v)
	}

	// TTL arguments that would overflow time.Duration are rejected, not
	// silently turned into deletes; SET requires a positive expiry.
	mustDo(t, c, "SET", "longlived", "v")
	if v, _ := c.Do("EXPIRE", "longlived", "10000000000"); !v.IsError() || !strings.Contains(v.Str, "invalid expire") {
		t.Fatalf("overflowing EXPIRE = %+v, want invalid-expire error", v)
	}
	if v := mustDo(t, c, "GET", "longlived"); v.Str != "v" {
		t.Fatalf("key lost to overflowing EXPIRE: %+v", v)
	}
	if v, _ := c.Do("SET", "x", "y", "EX", "0"); !v.IsError() {
		t.Fatalf("SET EX 0 = %+v, want error", v)
	}
	if v, _ := c.Do("SET", "x", "y", "PX", "-40"); !v.IsError() {
		t.Fatalf("SET PX -40 = %+v, want error", v)
	}
	// EXPIRE with an in-range negative TTL still deletes (Redis
	// semantics).
	if v := mustDo(t, c, "EXPIRE", "longlived", "-1"); v.Int != 1 {
		t.Fatalf("EXPIRE -1 = %+v", v)
	}
	if v := mustDo(t, c, "GET", "longlived"); !v.Null {
		t.Fatalf("EXPIRE -1 did not delete: %+v", v)
	}

	// MULTI/EXEC: queued replies, then the block's replies as one array.
	if v := mustDo(t, c, "MULTI"); v.Str != "OK" {
		t.Fatalf("MULTI = %+v", v)
	}
	if v := mustDo(t, c, "INCRBY", "x1", "5"); v.Str != "QUEUED" {
		t.Fatalf("queue INCRBY = %+v", v)
	}
	if v := mustDo(t, c, "INCRBY", "x2", "-5"); v.Str != "QUEUED" {
		t.Fatalf("queue INCRBY = %+v", v)
	}
	if v := mustDo(t, c, "MGET", "x1", "x2"); v.Str != "QUEUED" {
		t.Fatalf("queue MGET = %+v", v)
	}
	v = mustDo(t, c, "EXEC")
	if len(v.Elems) != 3 || v.Elems[0].Int != 5 || v.Elems[1].Int != -5 {
		t.Fatalf("EXEC = %+v", v)
	}
	if got := v.Elems[2]; got.Elems[0].Str != "5" || got.Elems[1].Str != "-5" {
		t.Fatalf("EXEC inner MGET = %+v", got)
	}

	// DISCARD drops the queue.
	mustDo(t, c, "MULTI")
	mustDo(t, c, "SET", "discarded", "1")
	if v := mustDo(t, c, "DISCARD"); v.Str != "OK" {
		t.Fatalf("DISCARD = %+v", v)
	}
	if v := mustDo(t, c, "GET", "discarded"); !v.Null {
		t.Fatalf("GET after DISCARD = %+v", v)
	}

	// A bad command poisons the queue: EXEC aborts.
	mustDo(t, c, "MULTI")
	if v, _ := c.Do("NOSUCH", "x"); !v.IsError() {
		t.Fatalf("queueing unknown command = %+v", v)
	}
	if v, _ := c.Do("SET", "y", "1"); v.Str != "QUEUED" {
		t.Fatalf("queue after poison = %+v", v)
	}
	if v, _ := c.Do("EXEC"); !v.IsError() || !strings.Contains(v.Str, "EXECABORT") {
		t.Fatalf("EXEC on poisoned queue = %+v", v)
	}
	if v := mustDo(t, c, "GET", "y"); !v.Null {
		t.Fatalf("poisoned EXEC committed: %+v", v)
	}

	// EXEC is all-or-nothing: a failing INCR aborts the whole block.
	mustDo(t, c, "SET", "text", "abc")
	mustDo(t, c, "MULTI")
	mustDo(t, c, "SET", "z", "1")
	mustDo(t, c, "INCR", "text")
	if v, _ := c.Do("EXEC"); !v.IsError() || !strings.Contains(v.Str, "EXECABORT") {
		t.Fatalf("EXEC with failing INCR = %+v", v)
	}
	if v := mustDo(t, c, "GET", "z"); !v.Null {
		t.Fatalf("aborted EXEC leaked a write: %+v", v)
	}

	// State-machine errors outside MULTI.
	if v, _ := c.Do("EXEC"); !v.IsError() {
		t.Fatalf("EXEC without MULTI = %+v", v)
	}
	if v, _ := c.Do("DISCARD"); !v.IsError() {
		t.Fatalf("DISCARD without MULTI = %+v", v)
	}
	if v, _ := c.Do("GET"); !v.IsError() {
		t.Fatalf("GET with no key = %+v", v)
	}

	// The inline form.
	raw := dialPipe(t, addr)
	raw.send(t, []byte("PING\r\n"))
	if got := raw.replies(t, 1); got[0] != "+PONG\r\n" {
		t.Fatalf("inline PING = %q", got[0])
	}

	// QUIT closes cleanly.
	if v, err := c.Do("QUIT"); err != nil || v.Str != "OK" {
		t.Fatalf("QUIT = %+v, %v", v, err)
	}
}

// TestServerTypedCommands drives the container command surface over
// real TCP: hash, list and zset verbs, TYPE, WRONGTYPE and arity
// error replies, WITHSCORES, and a MULTI/EXEC block spanning all
// three container kinds plus the all-or-nothing abort on a typed
// error.
func TestServerTypedCommands(t *testing.T) {
	var clk fakeClock
	st := New(stm.New(), WithClock(clk.now))
	addr, stop := startServer(t, st)
	defer stop()
	c := dialClient(t, addr)
	defer c.Close()

	// Hashes.
	if v := mustDo(t, c, "HSET", "h", "f1", "a", "f2", "b"); v.Int != 2 {
		t.Fatalf("HSET = %+v", v)
	}
	if v := mustDo(t, c, "HSET", "h", "f1", "c"); v.Int != 0 {
		t.Fatalf("HSET overwrite = %+v", v)
	}
	if v := mustDo(t, c, "HGET", "h", "f1"); v.Str != "c" {
		t.Fatalf("HGET = %+v", v)
	}
	if v := mustDo(t, c, "HGET", "h", "nope"); !v.Null {
		t.Fatalf("HGET absent = %+v", v)
	}
	if v := mustDo(t, c, "HLEN", "h"); v.Int != 2 {
		t.Fatalf("HLEN = %+v", v)
	}
	v := mustDo(t, c, "HGETALL", "h")
	if len(v.Elems) != 4 {
		t.Fatalf("HGETALL = %+v", v)
	}
	got := map[string]string{v.Elems[0].Str: v.Elems[1].Str, v.Elems[2].Str: v.Elems[3].Str}
	if got["f1"] != "c" || got["f2"] != "b" {
		t.Fatalf("HGETALL pairs = %v", got)
	}
	if v := mustDo(t, c, "HINCRBY", "h", "ctr", "7"); v.Int != 7 {
		t.Fatalf("HINCRBY = %+v", v)
	}
	if v := mustDo(t, c, "HDEL", "h", "f1", "ghost"); v.Int != 1 {
		t.Fatalf("HDEL = %+v", v)
	}
	if v, _ := c.Do("HSET", "h", "odd"); !v.IsError() {
		t.Fatalf("HSET bad arity = %+v", v)
	}

	// Lists.
	if v := mustDo(t, c, "RPUSH", "l", "a", "b"); v.Int != 2 {
		t.Fatalf("RPUSH = %+v", v)
	}
	if v := mustDo(t, c, "LPUSH", "l", "z"); v.Int != 3 {
		t.Fatalf("LPUSH = %+v", v)
	}
	v = mustDo(t, c, "LRANGE", "l", "0", "-1")
	if len(v.Elems) != 3 || v.Elems[0].Str != "z" || v.Elems[2].Str != "b" {
		t.Fatalf("LRANGE = %+v", v)
	}
	if v := mustDo(t, c, "LPOP", "l"); v.Str != "z" {
		t.Fatalf("LPOP = %+v", v)
	}
	if v := mustDo(t, c, "RPOP", "l"); v.Str != "b" {
		t.Fatalf("RPOP = %+v", v)
	}
	if v := mustDo(t, c, "LLEN", "l"); v.Int != 1 {
		t.Fatalf("LLEN = %+v", v)
	}
	if v := mustDo(t, c, "LPOP", "ghostlist"); !v.Null {
		t.Fatalf("LPOP missing = %+v", v)
	}

	// Sorted sets.
	if v := mustDo(t, c, "ZADD", "zs", "2", "b", "1", "a", "3", "c"); v.Int != 3 {
		t.Fatalf("ZADD = %+v", v)
	}
	if v := mustDo(t, c, "ZADD", "zs", "0.5", "c"); v.Int != 0 { // relocate
		t.Fatalf("ZADD relocate = %+v", v)
	}
	if v := mustDo(t, c, "ZSCORE", "zs", "b"); v.Str != "2" {
		t.Fatalf("ZSCORE = %+v", v)
	}
	if v := mustDo(t, c, "ZSCORE", "zs", "ghost"); !v.Null {
		t.Fatalf("ZSCORE missing = %+v", v)
	}
	v = mustDo(t, c, "ZRANGE", "zs", "0", "-1")
	if len(v.Elems) != 3 || v.Elems[0].Str != "c" || v.Elems[1].Str != "a" || v.Elems[2].Str != "b" {
		t.Fatalf("ZRANGE = %+v", v)
	}
	v = mustDo(t, c, "ZRANGE", "zs", "0", "1", "WITHSCORES")
	if len(v.Elems) != 4 || v.Elems[0].Str != "c" || v.Elems[1].Str != "0.5" || v.Elems[2].Str != "a" || v.Elems[3].Str != "1" {
		t.Fatalf("ZRANGE WITHSCORES = %+v", v)
	}
	if v, _ := c.Do("ZRANGE", "zs", "0", "1", "NOSUCH"); !v.IsError() {
		t.Fatalf("ZRANGE bad option = %+v", v)
	}
	if v, _ := c.Do("ZADD", "zs", "nan", "m"); !v.IsError() || !strings.Contains(v.Str, "not a valid float") {
		t.Fatalf("ZADD nan = %+v", v)
	}
	if v := mustDo(t, c, "ZCARD", "zs"); v.Int != 3 {
		t.Fatalf("ZCARD = %+v", v)
	}
	if v := mustDo(t, c, "ZREM", "zs", "a", "ghost"); v.Int != 1 {
		t.Fatalf("ZREM = %+v", v)
	}

	// TYPE names every kind; WRONGTYPE crosses them.
	mustDo(t, c, "SET", "str", "v")
	for key, want := range map[string]string{"str": "string", "h": "hash", "l": "list", "zs": "zset"} {
		if v := mustDo(t, c, "TYPE", key); v.Kind != '+' || v.Str != want {
			t.Fatalf("TYPE %s = %+v, want %s", key, v, want)
		}
	}
	if v := mustDo(t, c, "TYPE", "ghost"); v.Str != "none" {
		t.Fatalf("TYPE missing = %+v", v)
	}
	for _, cmd := range [][]string{
		{"GET", "h"},
		{"INCR", "l"},
		{"HGET", "l", "f"},
		{"LPUSH", "zs", "x"},
		{"ZADD", "str", "1", "m"},
		{"RPOP", "h"},
	} {
		if v, _ := c.Do(cmd...); !v.IsError() || !strings.HasPrefix(v.Str, "WRONGTYPE") {
			t.Fatalf("%v = %+v, want WRONGTYPE", cmd, v)
		}
	}
	// MGET reads container keys as null, never as an error.
	v = mustDo(t, c, "MGET", "str", "h", "l")
	if v.Elems[0].Str != "v" || !v.Elems[1].Null || !v.Elems[2].Null {
		t.Fatalf("MGET over containers = %+v", v)
	}

	// EXPIRE applies to a whole container.
	if v := mustDo(t, c, "EXPIRE", "h", "1"); v.Int != 1 {
		t.Fatalf("EXPIRE hash = %+v", v)
	}
	clk.advance(2 * time.Second)
	if v := mustDo(t, c, "HLEN", "h"); v.Int != 0 {
		t.Fatalf("HLEN after expiry = %+v", v)
	}
	if v := mustDo(t, c, "TYPE", "h"); v.Str != "none" {
		t.Fatalf("TYPE after expiry = %+v", v)
	}

	// One MULTI/EXEC block spanning all three container kinds: promote
	// a job from a list into a zset and bump a hash counter atomically.
	mustDo(t, c, "RPUSH", "jobs", "j1")
	for _, cmd := range [][]string{
		{"MULTI"}, {"LPOP", "jobs"}, {"ZADD", "active", "5", "j1"}, {"HINCRBY", "stats", "promoted", "1"},
	} {
		mustDo(t, c, cmd...)
	}
	v = mustDo(t, c, "EXEC")
	if len(v.Elems) != 3 || v.Elems[0].Str != "j1" || v.Elems[1].Int != 1 || v.Elems[2].Int != 1 {
		t.Fatalf("typed EXEC = %+v", v)
	}
	if v := mustDo(t, c, "TYPE", "jobs"); v.Str != "none" { // drained → auto-deleted
		t.Fatalf("TYPE drained list = %+v", v)
	}
	// All-or-nothing: a WRONGTYPE mid-block aborts every queued write.
	mustDo(t, c, "MULTI")
	mustDo(t, c, "RPUSH", "newlist", "x")
	mustDo(t, c, "HSET", "active", "f", "v") // active is a zset
	if v, _ := c.Do("EXEC"); !v.IsError() || !strings.Contains(v.Str, "EXECABORT") {
		t.Fatalf("EXEC with WRONGTYPE = %+v", v)
	}
	if v := mustDo(t, c, "TYPE", "newlist"); v.Str != "none" {
		t.Fatalf("aborted EXEC leaked a container write: %+v", v)
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestServerGarbageDoesNotKill sends protocol garbage and asserts the
// server survives it: the offending connection gets an error reply (or
// a close), and a fresh connection still works.
func TestServerGarbageDoesNotKill(t *testing.T) {
	st := New(stm.New())
	addr, stop := startServer(t, st)
	defer stop()
	for _, garbage := range []string{
		"*2\r\n$3\r\nGET\r\njunkjunk",
		"*-5\r\n",
		"*1\r\n$99999999\r\n",
		"\x00\x01\x02\xff\r\n",
		"*0\r\n", // empty command frame: answered, never a panic
	} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		conn.Write([]byte(garbage))
		// Expect a response promptly — an error reply (malformed frames
		// also close the connection; unknown inline commands keep it
		// open). Either way the server must answer, not hang.
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		buf := make([]byte, 4096)
		if n, err := conn.Read(buf); err != nil || n == 0 || buf[0] != '-' {
			t.Fatalf("garbage %q: reply %q, err %v; want an error reply", garbage, buf[:n], err)
		}
		conn.Close()
	}
	c := dialClient(t, addr)
	defer c.Close()
	if v := mustDo(t, c, "PING"); v.Str != "PONG" {
		t.Fatalf("server unhealthy after garbage: %+v", v)
	}
}

// TestServerTransferHammer is the issue's acceptance hammer at the
// protocol level: N connections move value between keys with
// MULTI/INCRBY/INCRBY/EXEC while auditor connections MGET the accounts
// and assert conservation at every snapshot. Runs under -race in CI.
func TestServerTransferHammer(t *testing.T) {
	const (
		accounts = 6
		movers   = 6
		auditors = 2
		initial  = 500
	)
	ops := hammerOps(t) / 2
	s := stm.New(stm.WithManagerFactory(core.MustFactory("karma")), stm.WithInterleavePeriod(4))
	st := New(s, WithShards(4), withBuckets(2))
	addr, stop := startServer(t, st)
	defer stop()

	keys := make([]string, accounts)
	seed := dialClient(t, addr)
	for i := range keys {
		keys[i] = fmt.Sprintf("acct:%d", i)
		mustDo(t, seed, "SET", keys[i], strconv.Itoa(initial))
	}
	seed.Close()

	var wg sync.WaitGroup
	errs := make([]error, movers+auditors)
	for g := 0; g < movers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := dialClient(t, addr)
			defer c.Close()
			for i := 0; i < ops; i++ {
				from := keys[(g+i)%accounts]
				to := keys[(g*7+i*3+1)%accounts]
				amount := strconv.Itoa(1 + (i % 9))
				for _, cmd := range [][]string{
					{"MULTI"},
					{"INCRBY", from, "-" + amount},
					{"INCRBY", to, amount},
					{"EXEC"},
				} {
					v, err := c.Do(cmd...)
					if err != nil {
						errs[g] = fmt.Errorf("%v: %w", cmd, err)
						return
					}
					if v.IsError() {
						errs[g] = fmt.Errorf("%v: %s", cmd, v.Str)
						return
					}
				}
			}
		}(g)
	}
	for a := 0; a < auditors; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			c := dialClient(t, addr)
			defer c.Close()
			for i := 0; i < ops; i++ {
				v, err := c.Do(append([]string{"MGET"}, keys...)...)
				if err != nil {
					errs[movers+a] = err
					return
				}
				sum := 0
				for j, e := range v.Elems {
					if e.Null {
						errs[movers+a] = fmt.Errorf("account %s vanished", keys[j])
						return
					}
					n, err := strconv.Atoi(e.Str)
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
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestServerCloseUnblocksClients: Close with live idle connections
// must not deadlock, and in-flight handlers must drain.
func TestServerCloseUnblocksClients(t *testing.T) {
	st := New(stm.New())
	addr, stop := startServer(t, st)
	c := dialClient(t, addr)
	defer c.Close()
	if v := mustDo(t, c, "PING"); v.Str != "PONG" {
		t.Fatalf("PING = %+v", v)
	}
	done := make(chan struct{})
	go func() { stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not drain with a live connection")
	}
	if _, err := c.Do("PING"); err == nil {
		t.Fatal("connection survived server Close")
	}
}

// TestServerSurface pins the exported *Server methods. The server runs
// its own background work (WithSweep, WithSaveSchedule) and keeps its
// own counters, so a method that lets an outside caller report into
// it does not belong here.
func TestServerSurface(t *testing.T) {
	want := []string{"Close", "Serve", "WriteMetrics"}
	typ := reflect.TypeOf((*Server)(nil))
	var got []string
	for i := range typ.NumMethod() {
		got = append(got, typ.Method(i).Name)
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("*Server methods:\n got  %v\n want %v", got, want)
	}
}

// waitFor polls cond until it holds, failing the test after 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestCloseStopsBackgroundLoops pins the server's ownership of its two
// background transaction streams: Serve starts the TTL sweeper and the
// snapshot schedule, and once Close returns neither runs again. A
// snapshot in progress at Close stops at its next chunk and publishes
// nothing, and the cancelled save is not counted as a failure.
func TestCloseStopsBackgroundLoops(t *testing.T) {
	var clk fakeClock
	st := New(stm.New(), WithClock(clk.now))
	l := openTestWAL(t, t.TempDir())
	defer l.Close()
	st.AttachWAL(l)
	srv := NewServer(st, WithSweep(16*time.Millisecond), WithSaveSchedule(time.Millisecond, 0))
	// The hook parks the first chunk cut after park is set until Close
	// cancels the server's context.
	var park atomic.Bool
	var chunks atomic.Int64
	parked := make(chan struct{})
	st.chunkCut = func(int) {
		chunks.Add(1)
		if park.CompareAndSwap(true, false) {
			close(parked)
			<-srv.ctx.Done()
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	// Both loops run: the sweeper reaps a dead key, the schedule
	// publishes snapshots.
	if err := st.SetTTL("early", "v", time.Millisecond); err != nil {
		t.Fatal(err)
	}
	clk.advance(time.Second)
	waitFor(t, "the sweeper to reap", func() bool { return srv.sm.sweepReaped.Load() == 1 })
	waitFor(t, "two scheduled snapshots", func() bool { return l.Stats().Snapshots >= 2 })

	park.Store(true)
	select {
	case <-parked:
	case <-time.After(10 * time.Second):
		t.Fatal("no snapshot chunk was cut after the schedule was parked")
	}
	snaps := l.Stats().Snapshots
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("serve returned: %v", err)
	}
	if got := l.Stats().Snapshots; got != snaps {
		t.Fatalf("the save parked at Close published: %d snapshots, want %d", got, snaps)
	}
	cut, reaped := chunks.Load(), srv.sm.sweepReaped.Load()

	// A dead key written now arms its shard, which a running sweeper
	// would reap and disarm; a running schedule would cut chunks. Many
	// sweeper passes and schedule ticks later, neither has happened.
	if err := st.SetTTL("late", "v", time.Millisecond); err != nil {
		t.Fatal(err)
	}
	clk.advance(time.Second)
	time.Sleep(100 * time.Millisecond)
	if got := srv.sm.sweepReaped.Load(); got != reaped {
		t.Fatalf("sweeper reaped %d keys after Close", got-reaped)
	}
	if got := st.armedShards(); got != 1 {
		t.Fatalf("%d shards armed after Close, want the late key's 1", got)
	}
	if got := chunks.Load(); got != cut {
		t.Fatalf("%d snapshot chunks cut after Close", got-cut)
	}
	if got := l.Stats().Snapshots; got != snaps {
		t.Fatalf("%d snapshots published after Close", got-snaps)
	}
	if got := srv.sm.bgsaveFailures.Load(); got != 0 {
		t.Fatalf("%d background saves counted as failed; a cancelled one is not", got)
	}
}

// TestSaveScheduleCountsRecords pins the record-count schedule
// (-bgsave-every <n>ops): no snapshot while fewer than n records have
// reached the log since the last, one soon after the n-th. The first n
// count from NewServer, so records logged before Serve (n-1 here) count
// even if the schedule's goroutine starts after them.
func TestSaveScheduleCountsRecords(t *testing.T) {
	st := New(stm.New())
	l := openTestWAL(t, t.TempDir())
	defer l.Close()
	st.AttachWAL(l)
	const n = 20
	srv := NewServer(st, WithSaveSchedule(0, n))
	set := func(from, to int) {
		for i := from; i < to; i++ {
			if err := st.Set(fmt.Sprintf("k%d", i), "v"); err != nil {
				t.Fatal(err)
			}
		}
	}
	set(0, n-1)
	_, stop := serve(t, srv)
	defer stop()
	time.Sleep(3*savePoll + savePoll/2)
	if got := l.Stats().Snapshots; got != 0 {
		t.Fatalf("%d snapshots after %d of %d records", got, n-1, n)
	}
	set(n-1, n)
	waitFor(t, "a snapshot after the n-th record", func() bool { return l.Stats().Snapshots == 1 })

	set(n, 2*n-1)
	time.Sleep(3*savePoll + savePoll/2)
	if got := l.Stats().Snapshots; got != 1 {
		t.Fatalf("%d snapshots after %d more records, want still 1", got, n-1)
	}
	set(2*n-1, 2*n)
	waitFor(t, "a second snapshot after n more records", func() bool { return l.Stats().Snapshots == 2 })
}

// TestBgsaveDuringSave: a BGSAVE while a save runs is refused at once
// (Redis's "Background save already in progress"), not acknowledged
// and then dropped, and only the running save publishes. The first
// save is parked in its first chunk, so the second BGSAVE meets it
// mid-cut; SAVE gets its own refusal.
func TestBgsaveDuringSave(t *testing.T) {
	st := New(stm.New())
	l := openTestWAL(t, t.TempDir())
	defer l.Close()
	st.AttachWAL(l)
	if err := st.Set("k", "v"); err != nil {
		t.Fatal(err)
	}
	var first atomic.Bool
	parked, release := make(chan struct{}), make(chan struct{})
	st.chunkCut = func(int) {
		if first.CompareAndSwap(false, true) {
			close(parked)
			<-release
		}
	}
	addr, stop := startServer(t, st)
	var freed sync.Once
	free := func() { freed.Do(func() { close(release) }) }
	stopped := false
	defer func() {
		free()
		if !stopped {
			stop()
		}
	}()
	c := dialClient(t, addr)
	defer c.Close()

	if v := mustDo(t, c, "BGSAVE"); v.Str != "Background saving started" {
		t.Fatalf("first BGSAVE = %q", v.Str)
	}
	select {
	case <-parked:
	case <-time.After(10 * time.Second):
		t.Fatal("the first save cut no chunk")
	}
	for _, cmd := range []struct{ name, want string }{
		{"BGSAVE", "ERR Background save already in progress"},
		{"SAVE", "ERR save already in progress"},
	} {
		v, err := c.Do(cmd.name)
		if err != nil {
			t.Fatal(err)
		}
		if !v.IsError() || v.Str != cmd.want {
			t.Fatalf("%s during a save = %q (error %v), want -%s", cmd.name, v.Str, v.IsError(), cmd.want)
		}
	}
	free()
	waitFor(t, "the first save to publish", func() bool { return l.Stats().Snapshots == 1 })
	stop()
	stopped = true
	if got := l.Stats().Snapshots; got != 1 {
		t.Fatalf("%d snapshots published, want the first save's 1", got)
	}
}
