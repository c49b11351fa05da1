package kv

import (
	"bytes"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/resp"
	"repro/internal/stm"
	"repro/internal/wal"
)

// step is one request and the exact bytes the server must answer.
type step struct {
	// send is the request: space-separated words sent as one array
	// frame, or raw bytes when it contains "\r\n".
	send string
	want string
	// fix marks a row that pins a PR 12 bugfix: every other row passes
	// unchanged against the pre-table server (commit c97675e), these do
	// not.
	fix bool
}

// arity is the wrong-argument-count reply. Data commands echo the
// upper-cased wire name, control commands the lower-cased one — a
// historical split the transcript pins so it cannot drift further.
func arity(name string) string {
	return "-ERR wrong number of arguments for '" + name + "' command\r\n"
}

const (
	ok          = "+OK\r\n"
	queued      = "+QUEUED\r\n"
	null        = "$-1\r\n"
	notInt      = "-ERR value is not an integer or out of range\r\n"
	notFloat    = "-ERR value is not a valid float\r\n"
	syntaxErr   = "-ERR syntax error\r\n"
	wrongType   = "-WRONGTYPE Operation against a key holding the wrong kind of value\r\n"
	execAborted = "-EXECABORT Transaction discarded because of previous errors\r\n"
)

// transcript is the characterisation table: every command's happy
// path, both arity edges and each syntax error, name case folding, the
// non-command frames, and the MULTI state machine. Each script runs on
// a fresh store, server and connection (clock frozen, SLOWLOG
// recording off, so every reply is deterministic).
var transcript = []struct {
	name    string
	durable bool
	steps   []step
}{
	{name: "strings", steps: []step{
		{send: "PING", want: "+PONG\r\n"},
		{send: "PING hello", want: "$5\r\nhello\r\n"},
		{send: "PING a b", want: arity("PING")},
		{send: "SET k v", want: ok},
		{send: "SET k", want: arity("SET")},
		{send: "SET k v EX", want: arity("SET")},
		{send: "SET k v EX 1 x", want: arity("SET")},
		{send: "SET k v XX 1", want: syntaxErr},
		{send: "SET k v EX 0", want: "-ERR invalid expire time in 'set' command\r\n"},
		{send: "SET k v PX -40", want: "-ERR invalid expire time in 'set' command\r\n"},
		{send: "SET k v EX 9223372036854775807", want: "-ERR invalid expire time in 'set' command\r\n"},
		{send: "SET k v EX soon", want: notInt},
		{send: "GET k", want: "$1\r\nv\r\n"},
		{send: "GET missing", want: null},
		{send: "GET", want: arity("GET")},
		{send: "GET k k2", want: arity("GET")},
		{send: "INCR n", want: ":1\r\n"},
		{send: "INCR", want: arity("INCR")},
		{send: "INCR n m", want: arity("INCR")},
		{send: "INCR k", want: notInt},
		{send: "INCRBY n 41", want: ":42\r\n"},
		{send: "INCRBY n -2", want: ":40\r\n"},
		{send: "INCRBY n", want: arity("INCRBY")},
		{send: "INCRBY n 1 2", want: arity("INCRBY")},
		{send: "INCRBY k x", want: notInt},
		{send: "MSET a 1 b 2", want: ok},
		{send: "MSET a", want: arity("MSET")},
		{send: "MSET a 1 b", want: arity("MSET")},
		{send: "MGET a nope b", want: "*3\r\n$1\r\n1\r\n$-1\r\n$1\r\n2\r\n"},
		{send: "MGET", want: arity("MGET")},
		{send: "DEL a nope", want: ":1\r\n"},
		{send: "DEL", want: arity("DEL")},
		{send: "DBSIZE", want: ":3\r\n"}, // k, n, b
		{send: "DBSIZE x", want: arity("DBSIZE")},
		{send: "TYPE k", want: "+string\r\n"},
		{send: "TYPE ghost", want: "+none\r\n"},
		{send: "TYPE", want: arity("TYPE")},
		{send: "TYPE k k2", want: arity("TYPE")},
	}},
	{name: "expiry", steps: []step{
		{send: "SET tmp x PX 500", want: ok},
		{send: "PTTL tmp", want: ":500\r\n"},
		{send: "TTL tmp", want: ":1\r\n"}, // rounds up
		{send: "SET tmp2 x ex 10", want: ok},
		{send: "TTL tmp2", want: ":10\r\n"},
		{send: "SET k v", want: ok},
		{send: "TTL k", want: ":-1\r\n"},
		{send: "PTTL ghost", want: ":-2\r\n"},
		{send: "TTL", want: arity("TTL")},
		{send: "TTL k k2", want: arity("TTL")},
		{send: "PTTL", want: arity("PTTL")},
		{send: "PTTL k k2", want: arity("PTTL")},
		{send: "EXPIRE k 100", want: ":1\r\n"},
		{send: "TTL k", want: ":100\r\n"},
		{send: "PEXPIRE k 1500", want: ":1\r\n"},
		{send: "PTTL k", want: ":1500\r\n"},
		{send: "EXPIRE ghost 100", want: ":0\r\n"},
		{send: "EXPIRE k", want: arity("EXPIRE")},
		{send: "EXPIRE k 1 2", want: arity("EXPIRE")},
		{send: "PEXPIRE k", want: arity("PEXPIRE")},
		{send: "PEXPIRE k 1 2", want: arity("PEXPIRE")},
		{send: "EXPIRE k soon", want: notInt},
		{send: "EXPIRE k 10000000000", want: "-ERR invalid expire time in 'expire' command\r\n"},
		{send: "EXPIRE k -10000000000", want: "-ERR invalid expire time in 'expire' command\r\n"},
		{send: "PEXPIRE k 9223372036854775807", want: "-ERR invalid expire time in 'pexpire' command\r\n"},
		{send: "GET k", want: "$1\r\nv\r\n"}, // survived the rejected TTLs
		{send: "EXPIRE k -1", want: ":1\r\n"},
		{send: "GET k", want: null}, // non-positive TTL deletes
	}},
	{name: "hashes", steps: []step{
		{send: "HSET h f1 a f2 b", want: ":2\r\n"},
		{send: "HSET h f1 c", want: ":0\r\n"},
		{send: "HSET h f1", want: arity("HSET")},
		{send: "HSET h f1 a f2", want: arity("HSET")},
		{send: "HGET h f1", want: "$1\r\nc\r\n"},
		{send: "HGET h nope", want: null},
		{send: "HGET h", want: arity("HGET")},
		{send: "HGET h f1 f2", want: arity("HGET")},
		{send: "HLEN h", want: ":2\r\n"},
		{send: "HLEN", want: arity("HLEN")},
		{send: "HLEN h h2", want: arity("HLEN")},
		{send: "HDEL h f2 ghost", want: ":1\r\n"},
		{send: "HDEL h", want: arity("HDEL")},
		{send: "HGETALL h", want: "*2\r\n$2\r\nf1\r\n$1\r\nc\r\n"},
		{send: "HGETALL ghost", want: "*0\r\n"},
		{send: "HGETALL", want: arity("HGETALL")},
		{send: "HGETALL h h2", want: arity("HGETALL")},
		{send: "HINCRBY h ctr 7", want: ":7\r\n"},
		{send: "HINCRBY h ctr", want: arity("HINCRBY")},
		{send: "HINCRBY h ctr 1 2", want: arity("HINCRBY")},
		{send: "HINCRBY h ctr x", want: notInt},
		{send: "HINCRBY h f1 1", want: notInt},
		{send: "TYPE h", want: "+hash\r\n"},
		{send: "GET h", want: wrongType},
		{send: "LPUSH h x", want: wrongType},
		{send: "MGET h", want: "*1\r\n$-1\r\n"},
	}},
	{name: "lists", steps: []step{
		{send: "RPUSH l a b", want: ":2\r\n"},
		{send: "RPUSH l", want: arity("RPUSH")},
		{send: "LPUSH l z", want: ":3\r\n"},
		{send: "LPUSH l", want: arity("LPUSH")},
		{send: "LLEN l", want: ":3\r\n"},
		{send: "LLEN", want: arity("LLEN")},
		{send: "LLEN l l2", want: arity("LLEN")},
		{send: "LRANGE l 0 -1", want: "*3\r\n$1\r\nz\r\n$1\r\na\r\n$1\r\nb\r\n"},
		{send: "LRANGE l 1 1", want: "*1\r\n$1\r\na\r\n"},
		{send: "LRANGE l -2 9223372036854775807", want: "*2\r\n$1\r\na\r\n$1\r\nb\r\n"},
		{send: "LRANGE l 5 9", want: "*0\r\n"},
		{send: "LRANGE l 0", want: arity("LRANGE")},
		{send: "LRANGE l 0 1 2", want: arity("LRANGE")},
		{send: "LRANGE l x 1", want: notInt},
		{send: "LRANGE l 0 9223372036854775808", want: notInt},
		{send: "LPOP l", want: "$1\r\nz\r\n"},
		{send: "LPOP", want: arity("LPOP")},
		{send: "LPOP l l2", want: arity("LPOP")},
		{send: "RPOP l", want: "$1\r\nb\r\n"},
		{send: "RPOP", want: arity("RPOP")},
		{send: "RPOP l l2", want: arity("RPOP")},
		{send: "RPOP ghost", want: null},
		{send: "TYPE l", want: "+list\r\n"},
		{send: "HGET l f", want: wrongType},
	}},
	{name: "zsets", steps: []step{
		{send: "ZADD zs 2 b 1 a 3 c", want: ":3\r\n"},
		{send: "ZADD zs 0.5 c", want: ":0\r\n"}, // rescore, not an add
		{send: "ZADD zs 1", want: arity("ZADD")},
		{send: "ZADD zs 1 m 2", want: arity("ZADD")},
		{send: "ZADD zs nan m", want: notFloat},
		{send: "ZADD zs 1 m high n", want: notFloat},
		{send: "ZSCORE zs b", want: "$1\r\n2\r\n"},
		{send: "ZSCORE zs ghost", want: null},
		{send: "ZSCORE zs", want: arity("ZSCORE")},
		{send: "ZSCORE zs b c", want: arity("ZSCORE")},
		{send: "ZCARD zs", want: ":3\r\n"},
		{send: "ZCARD", want: arity("ZCARD")},
		{send: "ZCARD zs zs2", want: arity("ZCARD")},
		{send: "ZRANGE zs 0 -1", want: "*3\r\n$1\r\nc\r\n$1\r\na\r\n$1\r\nb\r\n"},
		{send: "ZRANGE zs 0 1 WITHSCORES", want: "*4\r\n$1\r\nc\r\n$3\r\n0.5\r\n$1\r\na\r\n$1\r\n1\r\n"},
		{send: "ZRANGE zs -1 -1 withscores", want: "*2\r\n$1\r\nb\r\n$1\r\n2\r\n"},
		{send: "ZRANGE zs 0", want: arity("ZRANGE")},
		{send: "ZRANGE zs 0 1 WITHSCORES x", want: arity("ZRANGE")},
		{send: "ZRANGE zs 0 -1 BOGUS", want: syntaxErr},
		{send: "ZRANGE zs x -1 BOGUS", want: syntaxErr}, // option checked before the ranks
		{send: "ZRANGE zs x -1", want: notInt},
		{send: "ZREM zs a ghost", want: ":1\r\n"},
		{send: "ZREM zs", want: arity("ZREM")},
		{send: "TYPE zs", want: "+zset\r\n"},
		{send: "INCR zs", want: wrongType},
	}},
	{name: "names and frames", steps: []step{
		{send: "set k v", want: ok},
		{send: "GeT k", want: "$1\r\nv\r\n"},
		{send: "get", want: arity("GET")},
		{send: "NOSUCH x", want: "-ERR unknown command 'NOSUCH'\r\n"},
		{send: "nosuch", want: "-ERR unknown command 'NOSUCH'\r\n"},
		{send: "*0\r\n", want: "-ERR empty command\r\n"},
		{send: "PING\r\n", want: "+PONG\r\n"},        // inline form
		{send: "\r\nget k\r\n", want: "$1\r\nv\r\n"}, // bare CRLF keepalive skipped
		{send: "quit", want: ok},
	}},
	{name: "control", steps: []step{
		{send: "INFO keyspace", want: "$24\r\n# Keyspace\r\ndb0:keys=0\r\n\r\n"},
		{send: "info CLIENTS", want: "$32\r\n# Clients\r\nconnected_clients:1\r\n\r\n"},
		{send: "INFO bogus", want: "-ERR unknown INFO section 'bogus'\r\n"},
		{send: "INFO a b", want: arity("info")},
		{send: "SLOWLOG LEN", want: ":0\r\n"},
		{send: "SLOWLOG GET", want: "*0\r\n"},
		{send: "slowlog get 5", want: "*0\r\n"},
		{send: "SLOWLOG RESET", want: ok},
		{send: "SLOWLOG", want: arity("slowlog")},
		{send: "SLOWLOG LEN x", want: arity("slowlog|len")},
		{send: "SLOWLOG RESET x", want: arity("slowlog|reset")},
		{send: "SLOWLOG GET 1 2", want: arity("slowlog|get")},
		{send: "SLOWLOG GET x", want: notInt},
		{send: "SLOWLOG HELP", want: "-ERR unknown SLOWLOG subcommand 'HELP'\r\n"},
		{send: "ABORTLOG LEN", want: ":0\r\n"},
		{send: "ABORTLOG GET", want: "*0\r\n"},
		{send: "abortlog get 5", want: "*0\r\n"},
		{send: "ABORTLOG RESET", want: ok},
		{send: "ABORTLOG", want: arity("abortlog")},
		{send: "ABORTLOG LEN x", want: arity("abortlog|len")},
		{send: "ABORTLOG RESET x", want: arity("abortlog|reset")},
		{send: "ABORTLOG GET 1 2", want: arity("abortlog|get")},
		{send: "ABORTLOG GET x", want: notInt},
		{send: "ABORTLOG HELP", want: "-ERR unknown ABORTLOG subcommand 'HELP'\r\n"},
		{send: "SAVE", want: "-ERR persistence is disabled (start the server with -data)\r\n"},
		{send: "BGSAVE", want: "-ERR persistence is disabled (start the server with -data)\r\n"},
		{send: "SAVE x", want: arity("save")},
		{send: "BGSAVE x", want: arity("bgsave")},
		{send: "QUIT", want: ok},
	}},
	{name: "snapshots", durable: true, steps: []step{
		{send: "SET k v", want: ok},
		{send: "SAVE", want: ok},
		{send: "BGSAVE", want: "+Background saving started\r\n"},
	}},
	{name: "multi", steps: []step{
		{send: "EXEC", want: "-ERR EXEC without MULTI\r\n"},
		{send: "DISCARD", want: "-ERR DISCARD without MULTI\r\n"},
		{send: "MULTI", want: ok},
		{send: "SET a 1", want: queued},
		{send: "incrby a 4", want: queued},
		{send: "GET a", want: queued},
		{send: "PING", want: queued},
		{send: "DBSIZE", want: queued},
		{send: "EXEC", want: "*5\r\n+OK\r\n:5\r\n$1\r\n5\r\n+PONG\r\n:1\r\n"},
		{send: "EXEC", want: "-ERR EXEC without MULTI\r\n"},
		// Nested MULTI is refused but does not poison the block.
		{send: "MULTI", want: ok},
		{send: "MULTI", want: "-ERR MULTI calls can not be nested\r\n"},
		{send: "SET b 2", want: queued},
		{send: "EXEC", want: "*1\r\n+OK\r\n"},
		// DISCARD drops the queue.
		{send: "MULTI", want: ok},
		{send: "SET gone 1", want: queued},
		{send: "DISCARD", want: ok},
		{send: "GET gone", want: null},
		// Arity, syntax and unknown-command errors poison the block.
		{send: "MULTI", want: ok},
		{send: "GET", want: arity("GET")},
		{send: "SET y 1", want: queued},
		{send: "EXEC", want: execAborted},
		{send: "GET y", want: null},
		{send: "MULTI", want: ok},
		{send: "ZADD zs nan m", want: notFloat},
		{send: "EXEC", want: execAborted},
		{send: "MULTI", want: ok},
		{send: "NOSUCH", want: "-ERR unknown command 'NOSUCH'\r\n"},
		{send: "EXEC", want: execAborted},
		// A poisoned block can still be discarded.
		{send: "MULTI", want: ok},
		{send: "SET k v XX 1", want: syntaxErr},
		{send: "DISCARD", want: ok},
		{send: "EXEC", want: "-ERR EXEC without MULTI\r\n"},
		// Commands that cannot run inside a transaction poison it too.
		{send: "MULTI", want: ok},
		{send: "SAVE", want: "-ERR SAVE inside MULTI is not supported\r\n"},
		{send: "EXEC", want: execAborted},
		{send: "MULTI", want: ok},
		{send: "bgsave", want: "-ERR BGSAVE inside MULTI is not supported\r\n"},
		{send: "EXEC", want: execAborted},
		{send: "MULTI", want: ok},
		{send: "INFO", want: "-ERR INFO inside MULTI is not supported\r\n"},
		{send: "EXEC", want: execAborted},
		{send: "MULTI", want: ok},
		{send: "SLOWLOG LEN", want: "-ERR SLOWLOG inside MULTI is not supported\r\n"},
		{send: "EXEC", want: execAborted},
		{send: "MULTI", want: ok},
		{send: "ABORTLOG GET", want: "-ERR ABORTLOG inside MULTI is not supported\r\n"},
		{send: "EXEC", want: execAborted},
		// EXEC is all-or-nothing: a mid-block execution error aborts
		// every queued write.
		{send: "RPUSH l x", want: ":1\r\n"},
		{send: "MULTI", want: ok},
		{send: "SET z 1", want: queued},
		{send: "HSET l f v", want: queued},
		{send: "EXEC", want: "-EXECABORT Transaction aborted: WRONGTYPE Operation against a key holding the wrong kind of value\r\n"},
		{send: "GET z", want: null},
		{send: "SET text abc", want: ok},
		{send: "MULTI", want: ok},
		{send: "INCR text", want: queued},
		{send: "EXEC", want: "-EXECABORT Transaction aborted: ERR value is not an integer or out of range\r\n"},
		// An empty block commits an empty array; QUIT inside MULTI hangs up.
		{send: "MULTI", want: ok},
		{send: "EXEC", want: "*0\r\n"},
		{send: "MULTI", want: ok},
		{send: "QUIT", want: ok},
	}},
	// Bugfix 1: an arity error on a control command inside MULTI poisons
	// the block like any other queue-time error (the EXEC rows fail at
	// the parent, which answered *0).
	{name: "multi poisoned by INFO arity", steps: []step{
		{send: "MULTI", want: ok},
		{send: "INFO a b", want: arity("info")},
		{send: "EXEC", want: execAborted, fix: true},
	}},
	{name: "multi poisoned by SLOWLOG arity", steps: []step{
		{send: "MULTI", want: ok},
		{send: "SLOWLOG", want: arity("slowlog")},
		{send: "EXEC", want: execAborted, fix: true},
	}},
	{name: "multi poisoned by ABORTLOG arity", steps: []step{
		{send: "MULTI", want: ok},
		{send: "ABORTLOG", want: arity("abortlog")},
		{send: "EXEC", want: execAborted, fix: true},
	}},
	{name: "multi poisoned by SAVE arity", steps: []step{
		{send: "MULTI", want: ok},
		{send: "SAVE x", want: arity("save")},
		{send: "EXEC", want: execAborted, fix: true},
	}},
	{name: "multi poisoned by BGSAVE arity", steps: []step{
		{send: "MULTI", want: ok},
		{send: "BGSAVE x", want: arity("bgsave")},
		{send: "EXEC", want: execAborted, fix: true},
	}},
	// Bugfix 2: the state-machine commands check their arity instead of
	// ignoring extra arguments.
	{name: "MULTI arity", steps: []step{
		{send: "MULTI x", want: arity("multi"), fix: true},
		{send: "EXEC", want: "-ERR EXEC without MULTI\r\n", fix: true},
	}},
	{name: "EXEC and DISCARD arity", steps: []step{
		{send: "EXEC x", want: arity("exec"), fix: true},
		{send: "DISCARD x", want: arity("discard"), fix: true},
		{send: "MULTI", want: ok},
		{send: "DISCARD x", want: arity("discard"), fix: true},
		{send: "EXEC x", want: arity("exec"), fix: true},
		{send: "EXEC", want: execAborted, fix: true},
	}},
	{name: "QUIT arity", steps: []step{
		{send: "QUIT x", want: arity("quit"), fix: true},
		{send: "PING", want: "+PONG\r\n", fix: true},
	}},
}

// TestServerTranscript replays the characterisation table over real
// TCP connections and compares every reply byte for byte.
func TestServerTranscript(t *testing.T) {
	for _, sc := range transcript {
		t.Run(sc.name, func(t *testing.T) {
			var clk fakeClock
			st := New(stm.New(), WithClock(clk.now))
			if sc.durable {
				l, err := wal.Open(t.TempDir(), wal.Options{})
				if err != nil {
					t.Fatal(err)
				}
				st.AttachWAL(l)
				defer l.Close()
				// BGSAVE's cut runs behind its reply; the server's Close
				// (stop, below) waits for it, before the log closes.
			}
			_, addr, stop := startServerWith(t, st, withSlowlog(-1, 0))
			defer stop()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			// The tee keeps the raw bytes of each reply the reader parses.
			var raw bytes.Buffer
			r := resp.NewReader(io.TeeReader(conn, &raw))
			w := resp.NewWriter(conn)
			for i, s := range sc.steps {
				if strings.Contains(s.send, "\r\n") {
					if _, err := conn.Write([]byte(s.send)); err != nil {
						t.Fatalf("step %d %q: %v", i, s.send, err)
					}
				} else {
					words := strings.Fields(s.send)
					w.Array(len(words))
					for _, word := range words {
						w.Bulk(word)
					}
					if err := w.Flush(); err != nil {
						t.Fatalf("step %d %q: %v", i, s.send, err)
					}
				}
				raw.Reset()
				conn.SetReadDeadline(time.Now().Add(5 * time.Second))
				if _, err := r.ReadReply(); err != nil {
					t.Fatalf("step %d %q: read reply: %v (bugfix row: %v)", i, s.send, err, s.fix)
				}
				if got := raw.String(); got != s.want {
					t.Fatalf("step %d %q:\n got %q\nwant %q\n(bugfix row: %v)", i, s.send, got, s.want, s.fix)
				}
			}
		})
	}
}
