package kv

import (
	"io"
	"net"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/stm"
	"repro/internal/wal"
)

// startServerWith is startServer with server options.
func startServerWith(t *testing.T, st *Store, opts ...ServerOption) (*Server, string, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(st, opts...)
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
	return srv, ln.Addr().String(), stop
}

func TestInfoSections(t *testing.T) {
	st := New(stm.New())
	_, addr, stop := startServerWith(t, st, WithManagerName("greedy"))
	defer stop()
	c := dialClient(t, addr)
	defer c.Close()

	mustDo(t, c, "SET", "a", "1")
	mustDo(t, c, "SET", "b", "2")

	// No argument: every section, with live values.
	v := mustDo(t, c, "INFO")
	if v.Kind != '$' {
		t.Fatalf("INFO reply kind = %q, want bulk", v.Kind)
	}
	for _, want := range []string{
		"# Server", "# Clients", "# Stats", "# Commandstats", "# Stm", "# Wal", "# Keyspace",
		"contention_manager:greedy", "connected_clients:1", "wal_enabled:0",
		"db0:keys=2", "cmdstat_set:calls=2",
	} {
		if !strings.Contains(v.Str, want) {
			t.Fatalf("INFO missing %q:\n%s", want, v.Str)
		}
	}
	// Two commands sent one at a time: two replies, two sends (INFO's own
	// reply is not sent yet).
	if !strings.Contains(v.Str, "total_commands_processed:2\r\n") || !strings.Contains(v.Str, "reply_flushes:2\r\n") {
		t.Fatalf("INFO stats: want 2 commands in 2 reply flushes:\n%s", v.Str)
	}

	// Section selection, case-insensitive.
	v = mustDo(t, c, "INFO", "KEYSPACE")
	if !strings.Contains(v.Str, "db0:keys=2") || strings.Contains(v.Str, "# Server") {
		t.Fatalf("INFO KEYSPACE = %q", v.Str)
	}
	v = mustDo(t, c, "INFO", "stm")
	if !strings.Contains(v.Str, "commits:") || !strings.Contains(v.Str, "wait_ns:") {
		t.Fatalf("INFO stm = %q", v.Str)
	}

	// A TTL arms its shard's sweep, and only its shard's.
	if v = mustDo(t, c, "INFO", "stats"); !strings.Contains(v.Str, "sweeper_reaped_keys:0\r\nexpiry_armed_shards:0\r\n") {
		t.Fatalf("INFO stats before any TTL = %q", v.Str)
	}
	mustDo(t, c, "SET", "c", "3", "PX", "60000")
	if v = mustDo(t, c, "INFO", "stats"); !strings.Contains(v.Str, "expiry_armed_shards:1\r\n") {
		t.Fatalf("INFO stats after SET PX = %q", v.Str)
	}

	// Unknown section and bad arity are errors.
	if v, _ := c.Do("INFO", "bogus"); !v.IsError() || !strings.Contains(v.Str, "unknown INFO section") {
		t.Fatalf("INFO bogus = %+v, want unknown-section error", v)
	}
	if v, _ := c.Do("INFO", "stats", "extra"); !v.IsError() {
		t.Fatalf("INFO with two args = %+v, want arity error", v)
	}
}

func TestInfoAndSlowlogRejectedInsideMulti(t *testing.T) {
	st := New(stm.New())
	_, addr, stop := startServerWith(t, st)
	defer stop()
	c := dialClient(t, addr)
	defer c.Close()

	for _, cmd := range [][]string{{"INFO"}, {"SLOWLOG", "LEN"}} {
		mustDo(t, c, "MULTI")
		if v, _ := c.Do(cmd...); !v.IsError() || !strings.Contains(v.Str, "inside MULTI") {
			t.Fatalf("%v inside MULTI = %+v, want rejection", cmd, v)
		}
		// The rejection poisons the block, exactly like SAVE.
		if v, _ := c.Do("EXEC"); !v.IsError() || !strings.HasPrefix(v.Str, "EXECABORT") {
			t.Fatalf("EXEC after %v = %+v, want EXECABORT", cmd, v)
		}
	}
}

func TestSlowlogRingWraparound(t *testing.T) {
	st := New(stm.New())
	// Threshold zero records every command; rings of 4 force wraparound.
	// The abort log is not installed as the engine's tracer, so only
	// the TxDone calls below feed it.
	al := NewAbortLog(4)
	_, addr, stop := startServerWith(t, st, withSlowlog(0, 4), WithAbortLog(al))
	defer stop()
	c := dialClient(t, addr)
	defer c.Close()

	for i := 0; i < 10; i++ {
		mustDo(t, c, "SET", "k", "v")
	}
	v := mustDo(t, c, "SLOWLOG", "LEN")
	if v.Int != 4 {
		t.Fatalf("SLOWLOG LEN = %d, want ring size 4", v.Int)
	}
	v = mustDo(t, c, "SLOWLOG", "GET", "-1")
	if len(v.Elems) != 4 {
		t.Fatalf("SLOWLOG GET returned %d entries, want 4", len(v.Elems))
	}
	// Newest first, strictly descending ids; every surviving entry is
	// from the most recent commands (ids keep counting past the ring).
	prev := int64(1 << 62)
	for _, e := range v.Elems {
		if len(e.Elems) != 6 {
			t.Fatalf("entry shape = %+v", e)
		}
		id, usec, cmd := e.Elems[0].Int, e.Elems[2].Int, e.Elems[3]
		if id >= prev {
			t.Fatalf("ids not descending: %d after %d", id, prev)
		}
		prev = id
		if usec < 0 {
			t.Fatalf("negative duration %d", usec)
		}
		if len(cmd.Elems) == 0 {
			t.Fatal("entry lost its command args")
		}
		// The contention-forensics fields: a transactional SET ran at
		// least one attempt; wait time cannot be negative.
		if attempts := e.Elems[4].Int; attempts < 1 {
			t.Fatalf("SET recorded %d attempts, want >= 1", attempts)
		}
		if waitNs := e.Elems[5].Int; waitNs < 0 {
			t.Fatalf("negative wait_ns %d", waitNs)
		}
	}
	// The newest entry's id reflects everything ever recorded (the 10
	// SETs; SLOWLOG itself is exempt), not just the 4 held.
	if newest := v.Elems[0].Elems[0].Int; newest < 9 {
		t.Fatalf("newest id = %d, want >= 9 after wraparound", newest)
	}
	// GET with a count caps the result.
	if v = mustDo(t, c, "SLOWLOG", "GET", "2"); len(v.Elems) != 2 {
		t.Fatalf("SLOWLOG GET 2 returned %d entries", len(v.Elems))
	}
	mustDo(t, c, "SLOWLOG", "RESET")
	if v = mustDo(t, c, "SLOWLOG", "LEN"); v.Int != 0 {
		t.Fatalf("SLOWLOG LEN after RESET = %d", v.Int)
	}
	// Unknown subcommand errors.
	if v, _ := c.Do("SLOWLOG", "HELP"); !v.IsError() {
		t.Fatalf("SLOWLOG HELP = %+v, want error", v)
	}

	// ABORTLOG keeps the same ring behind its own filter: a clean
	// first-try commit is not recorded, a retried one is, with its cause.
	al.TxDone(stm.TxSummary{Label: "SET", Committed: true, Attempts: 1}, nil)
	if v = mustDo(t, c, "ABORTLOG", "LEN"); v.Int != 0 {
		t.Fatalf("ABORTLOG LEN after a clean commit = %d, want 0", v.Int)
	}
	retried := stm.TxSummary{Label: "SET", Committed: true, Cause: stm.CauseEnemyAbort, Attempts: 2}
	for i := 0; i < 10; i++ {
		al.TxDone(retried, []stm.TraceEvent{{Kind: stm.TraceAbort, Attempt: 1, Cause: stm.CauseEnemyAbort}})
	}
	if v = mustDo(t, c, "ABORTLOG", "LEN"); v.Int != 4 {
		t.Fatalf("ABORTLOG LEN = %d, want ring size 4", v.Int)
	}
	v = mustDo(t, c, "ABORTLOG", "GET", "-1")
	if len(v.Elems) != 4 {
		t.Fatalf("ABORTLOG GET returned %d entries, want 4", len(v.Elems))
	}
	// Newest first, and ids keep counting past the ring: 9, 8, 7, 6.
	for i, e := range v.Elems {
		if len(e.Elems) != 9 {
			t.Fatalf("entry shape = %+v", e)
		}
		if id := e.Elems[0].Int; id != int64(9-i) {
			t.Fatalf("entry %d has id %d, want %d", i, id, 9-i)
		}
		if label, cause, attempts := e.Elems[2].Str, e.Elems[4].Str, e.Elems[5].Int; label != "SET" || cause != "enemy-abort" || attempts != 2 {
			t.Fatalf("entry %d = label %q, cause %q, %d attempts; want SET, enemy-abort, 2", i, label, cause, attempts)
		}
		if evs := e.Elems[8].Elems; len(evs) != 1 || evs[0].Str != "a1 abort cause=enemy-abort" {
			t.Fatalf("entry %d events = %+v", i, evs)
		}
	}
	if v = mustDo(t, c, "ABORTLOG", "GET", "2"); len(v.Elems) != 2 {
		t.Fatalf("ABORTLOG GET 2 returned %d entries", len(v.Elems))
	}
	// A trace longer than the cap renders as 32 events plus a count of
	// the rest.
	al.TxDone(stm.TxSummary{Cause: stm.CauseUserError, Attempts: 1}, make([]stm.TraceEvent, 40))
	v = mustDo(t, c, "ABORTLOG", "GET", "1")
	if evs := v.Elems[0].Elems[8].Elems; len(evs) != 33 || evs[32].Str != "... 8 more events" {
		t.Fatalf("long trace rendered as %d events, last %+v", len(evs), evs[len(evs)-1])
	}
	mustDo(t, c, "ABORTLOG", "RESET")
	if v = mustDo(t, c, "ABORTLOG", "LEN"); v.Int != 0 {
		t.Fatalf("ABORTLOG LEN after RESET = %d", v.Int)
	}
	if v = mustDo(t, c, "ABORTLOG", "GET"); len(v.Elems) != 0 {
		t.Fatalf("ABORTLOG GET after RESET returned %d entries", len(v.Elems))
	}
}

// TestMetricsExposition drives commands over RESP and checks the
// registry's /metrics output parses back with the expected samples —
// per-command counters and latency histograms, engine wait-time with
// the manager label, the shard a TTL armed, and WAL internals on a
// durable store.
func TestMetricsExposition(t *testing.T) {
	dir := t.TempDir()
	l, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := New(stm.New())
	st.AttachWAL(l)
	defer l.Close()

	srv, addr, stop := startServerWith(t, st, WithManagerName("karma"))
	defer stop()
	reg := srv.Registry()
	c := dialClient(t, addr)
	defer c.Close()
	mustDo(t, c, "SET", "k", "v", "PX", "60000")
	mustDo(t, c, "GET", "k")
	mustDo(t, c, "GET", "k")
	if v, _ := c.Do("GET"); !v.IsError() {
		t.Fatalf("GET with no key = %+v, want arity error", v)
	}
	srv.sm.sweepFailures.Inc()
	srv.sm.bgsaveFailures.Inc()

	mux := obs.Mux(reg, nil)
	hs := httptest.NewServer(mux)
	defer hs.Close()
	resp, err := hs.Client().Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	samples, err := obs.CheckExposition(body)
	if err != nil {
		t.Fatalf("/metrics failed parse-back: %v\n%s", err, body)
	}
	checks := map[string]float64{
		`stmkv_commands_total{cmd="set"}`:        1,
		`stmkv_commands_total{cmd="get"}`:        3,
		`stmkv_command_errors_total{cmd="get"}`:  1,
		`stmkv_command_seconds_count{cmd="get"}`: 3,
		`stmkv_sweeper_failures_total`:           1,
		`stmkv_expiry_armed_shards`:              1,
		`stmkv_bgsave_failures_total`:            1,
		`stmkv_reply_flushes_total`:              4, // four commands, one at a time
	}
	for name, want := range checks {
		if got := samples[name]; got != want {
			t.Fatalf("%s = %g, want %g\n%s", name, got, want, body)
		}
	}
	// Engine metrics carry the manager label; commits happened.
	if samples[`stm_commits_total{manager="karma"}`] < 1 {
		t.Fatalf("stm_commits_total missing or zero:\n%s", body)
	}
	if _, ok := samples[`stm_wait_ns_total{manager="karma"}`]; !ok {
		t.Fatalf("per-manager wait metric missing:\n%s", body)
	}
	if samples[`stm_commit_seconds_count{manager="karma"}`] < 1 {
		t.Fatalf("commit latency histogram empty:\n%s", body)
	}
	// WAL metrics present on a durable store.
	if samples[`wal_records_total`] < 1 {
		t.Fatalf("wal_records_total missing:\n%s", body)
	}
	if _, ok := samples[`wal_fsync_seconds_count`]; !ok {
		t.Fatalf("wal fsync histogram missing:\n%s", body)
	}
	// One SET, acknowledged: appended, durable, nothing in between.
	if enq, dur, depth := samples[`wal_lsn_enqueued`], samples[`wal_lsn_durable`], samples[`wal_queue_depth`]; enq != 1 || dur != 1 || depth != 0 {
		t.Fatalf("wal watermark gauges: lsn_enqueued %g, lsn_durable %g, queue_depth %g, want 1, 1, 0\n%s", enq, dur, depth, body)
	}
	if info := mustDo(t, c, "INFO", "wal").Str; !strings.Contains(info, "lsn_enqueued:1\r\nlsn_durable:1\r\nqueue_depth:0\r\n") {
		t.Fatalf("INFO wal lacks the watermark lines:\n%s", info)
	}
	if samples[`stmkv_keys`] != 1 {
		t.Fatalf("stmkv_keys = %g, want 1\n%s", samples[`stmkv_keys`], body)
	}
	if samples[`stmkv_connected_clients`] != 1 {
		t.Fatalf("stmkv_connected_clients = %g, want 1", samples[`stmkv_connected_clients`])
	}

	// pprof rides the same mux.
	pr, err := hs.Client().Get(hs.URL + "/debug/pprof/goroutine?debug=1")
	if err != nil {
		t.Fatal(err)
	}
	pr.Body.Close()
	if pr.StatusCode != 200 {
		t.Fatalf("pprof status = %d", pr.StatusCode)
	}
}

// TestCommitTelemetry: stm_commit_seconds and stm_commit_attempts count
// the command transactions that committed, one sample each, whatever
// else the connection sends. Here that is n SETs, a PING (its body
// reads nothing, but it runs as a transaction like any data command)
// and an EXEC of two commands, which is one transaction; an INCR that
// fails on a wrong-type key commits nothing and is not counted. Every
// transaction commits first try, so the attempts sum equals the count
// and INFO's attempts_per_commit reads 1.00.
func TestCommitTelemetry(t *testing.T) {
	const n = 20
	srv, addr, stop := startServerWith(t, New(stm.New()), WithManagerName("greedy"))
	defer stop()
	c := dialClient(t, addr)
	defer c.Close()
	for i := range n {
		mustDo(t, c, "SET", "k"+strconv.Itoa(i), "v")
	}
	mustDo(t, c, "MULTI")
	mustDo(t, c, "RPUSH", "l", "a")
	mustDo(t, c, "GET", "k0")
	if v := mustDo(t, c, "EXEC"); len(v.Elems) != 2 {
		t.Fatalf("EXEC = %+v, want two replies", v)
	}
	if v, _ := c.Do("INCR", "l"); !strings.HasPrefix(v.Str, "WRONGTYPE") {
		t.Fatalf("INCR on a list = %+v, want WRONGTYPE", v)
	}
	mustDo(t, c, "PING")

	var body strings.Builder
	if err := srv.Registry().WriteProm(&body); err != nil {
		t.Fatal(err)
	}
	samples, err := obs.CheckExposition([]byte(body.String()))
	if err != nil {
		t.Fatalf("/metrics failed parse-back: %v\n%s", err, body.String())
	}
	const want = n + 2 // the SETs, the EXEC and the PING
	for _, name := range []string{
		`stm_commit_seconds_count{manager="greedy"}`,
		`stm_commit_attempts_count{manager="greedy"}`,
		`stm_commit_attempts_sum{manager="greedy"}`,
	} {
		if got := samples[name]; got != want {
			t.Errorf("%s = %g, want %d", name, got, want)
		}
	}
	info := mustDo(t, c, "INFO", "stm").Str
	for _, line := range []string{"commit_p50_usec:", "commit_p99_usec:", "attempts_per_commit:1.00\r\n"} {
		if !strings.Contains(info, line) {
			t.Errorf("INFO stm lacks %q:\n%s", line, info)
		}
	}
}

// TestStorePeekLen: the non-transactional key count matches reality
// and skips expired entries.
func TestStorePeekLen(t *testing.T) {
	var clk fakeClock
	st := New(stm.New(), WithClock(clk.now))
	if err := st.Set("a", "1"); err != nil {
		t.Fatal(err)
	}
	if err := st.SetTTL("b", "2", time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := st.PeekLen(); got != 2 {
		t.Fatalf("PeekLen = %d, want 2", got)
	}
	clk.advance(time.Second)
	if got := st.PeekLen(); got != 1 {
		t.Fatalf("PeekLen after expiry = %d, want 1", got)
	}
}
