package kv

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/resp"
)

// This file is the server's observability surface: per-command
// metrics, the SLOWLOG ring, the INFO sections, and the bridge that
// exposes engine (stm), WAL and keyspace state through the obs
// registry. The paper-relevant number here is the per-manager wait
// time: a contention manager without a progress guarantee shows up as
// stm_wait_ns_total exploding while commits flatline (ROADMAP's karma
// convoy), which no throughput counter reveals.

// ServerOption configures a Server beyond its store.
type ServerOption func(*Server)

// WithManagerName labels the engine metrics with the contention
// manager the server was started with, so dashboards can tell a karma
// fleet from a greedy one.
func WithManagerName(name string) ServerOption {
	return func(srv *Server) { srv.managerName = name }
}

// cmdMetrics is one command's counters and latency distribution.
type cmdMetrics struct {
	calls  *obs.Counter
	errors *obs.Counter
	lat    *obs.Histogram
}

// serverMetrics bundles the server's own instruments.
type serverMetrics struct {
	connections *obs.Counter
	clients     *obs.Gauge
	// cmds is indexed by command.idx — the fixed metric universe,
	// registered up front so the hot path is an index, never a
	// registration. The last slot is unknownCommand's.
	cmds []cmdMetrics

	// commitLat and commitTries are stm_commit_seconds and
	// stm_commit_attempts: the latency and attempt count of every
	// command transaction that committed (see observe).
	commitLat   *obs.Histogram
	commitTries *obs.Histogram

	sweepFailures  *obs.Counter
	sweepReaped    *obs.Counter
	bgsaveFailures *obs.Counter
	replyFlushes   *obs.Counter
}

func newServerMetrics(reg *obs.Registry, manager string) *serverMetrics {
	lbl := obs.Labels{"manager": manager}
	sm := &serverMetrics{
		connections: reg.Counter("stmkv_connections_total", "Connections accepted.", nil),
		clients:     reg.Gauge("stmkv_connected_clients", "Connections currently open.", nil),
		cmds:        make([]cmdMetrics, len(commandTable)+1),
		commitLat: reg.Histogram("stm_commit_seconds",
			"Committed command transactions (sweeper and snapshot chunks excluded): read to commit, retries included.", lbl),
		commitTries: reg.SizeHistogram("stm_commit_attempts",
			"Attempts per committed command transaction (1 = first try).", lbl),
		sweepFailures: reg.Counter("stmkv_sweeper_failures_total",
			"Background TTL sweeper passes that failed.", nil),
		sweepReaped: reg.Counter("stmkv_sweeper_reaped_total",
			"Expired keys removed by the background sweeper.", nil),
		bgsaveFailures: reg.Counter("stmkv_bgsave_failures_total",
			"Background saves (scheduled or BGSAVE) that failed.", nil),
		replyFlushes: reg.Counter("stmkv_reply_flushes_total",
			"Batches of replies sent to clients; commands per batch is stmkv_commands_total over this.", nil),
	}
	for _, cmd := range append(commandTable, unknownCommand) {
		lbl := obs.Labels{"cmd": strings.ToLower(cmd.name)}
		sm.cmds[cmd.idx] = cmdMetrics{
			calls:  reg.Counter("stmkv_commands_total", "Commands processed.", lbl),
			errors: reg.Counter("stmkv_command_errors_total", "Commands answered with an error.", lbl),
			lat:    reg.Histogram("stmkv_command_seconds", "Command wall time, decode to reply.", lbl),
		}
	}
	return sm
}

// observe records one released command. reply errors count as command
// errors whether they came from validation, execution, or state
// machinery (MULTI misuse) — if the client saw "-ERR", it counts. A
// command whose transaction committed also feeds the stm_commit_*
// histograms, timed from its read to its commit: the release reading
// stands for the commit's when the reply went straight out, and a
// held reply carries the reading taken when it was held, so a wait
// for the log is not counted.
func (srv *Server) observe(h *heldReply) {
	m := &srv.sm.cmds[h.cmd.idx]
	m.calls.Inc()
	if h.reply.IsError() {
		m.errors.Inc()
	}
	now := metrics.Mono()
	dur := now - h.start
	m.lat.Observe(dur)
	if h.cost.committed {
		committed := now
		if h.held != 0 {
			committed = h.held
		}
		srv.sm.commitLat.Observe(committed - h.start)
		srv.sm.commitTries.ObserveN(h.cost.attempts)
	}
	if !h.cmd.noSlowlog {
		srv.slow.note(h.argv, dur, h.cost)
	}
}

// replyFlushes is how many batches of replies the server has sent —
// one writev(2) each on a TCP connection.
func (srv *Server) replyFlushes() int64 { return srv.sm.replyFlushes.Value() }

// Registry returns the registry holding the server's metrics, for
// serving over HTTP.
func (srv *Server) Registry() *obs.Registry { return srv.reg }

// registerStoreMetrics bridges engine, WAL and keyspace state into the
// registry as read-at-scrape functions — the subsystems keep their own
// quiescence-free counters; exposition just snapshots them.
func registerStoreMetrics(reg *obs.Registry, st *Store, manager string) {
	lbl := obs.Labels{"manager": manager}
	engine := st.STM()
	reg.CounterFunc("stm_commits_total", "Committed logical transactions.", lbl,
		func() int64 { s := engine.TotalStats(); return s.Commits })
	reg.CounterFunc("stm_aborts_total", "Aborted transaction attempts.", lbl,
		func() int64 { s := engine.TotalStats(); return s.Aborts })
	reg.CounterFunc("stm_conflicts_total", "Conflicts observed.", lbl,
		func() int64 { s := engine.TotalStats(); return s.Conflicts })
	reg.CounterFunc("stm_enemy_aborts_total", "Conflicts resolved by aborting the enemy.", lbl,
		func() int64 { s := engine.TotalStats(); return s.EnemyAborts })
	reg.CounterFunc("stm_aborts_enemy_total",
		"Aborts caused by an enemy's manager (or the self-abort ruling).", lbl,
		func() int64 { s := engine.TotalStats(); return s.AbortsEnemy })
	reg.CounterFunc("stm_aborts_validation_total",
		"Aborts from read-set validation failure.", lbl,
		func() int64 { s := engine.TotalStats(); return s.AbortsValidation })
	reg.CounterFunc("stm_aborts_validation_held_total",
		"Validation aborts where a read's commit stripe was held by another committing writer (a subset of stm_aborts_validation_total).", lbl,
		func() int64 { s := engine.TotalStats(); return s.AbortsValidationHeld })
	reg.CounterFunc("stm_aborts_cas_race_total",
		"Aborts from losing the commit status CAS after validation.", lbl,
		func() int64 { s := engine.TotalStats(); return s.AbortsCASRace })
	reg.CounterFunc("stm_aborts_user_total",
		"Transactions ended by a non-retryable user error.", lbl,
		func() int64 { s := engine.TotalStats(); return s.AbortsUser })
	reg.CounterFunc("stm_wait_ns_total",
		"Nanoseconds in the engine's wait on a contention manager's ruling (policy waiting).", lbl,
		func() int64 { s := engine.TotalStats(); return s.WaitNs })
	reg.CounterFunc("stm_backoff_ns_total",
		"Nanoseconds in engine-level backoff (acquisition CAS retries).", lbl,
		func() int64 { s := engine.TotalStats(); return s.BackoffNs })
	reg.GaugeFunc("stmkv_keys", "Approximate live keys (expired excluded).", nil,
		func() float64 { return float64(st.PeekLen()) })
	reg.GaugeFunc("stmkv_expiry_armed_shards", "Shards that may hold a key with a TTL; the sweeper skips the rest.", nil,
		func() float64 { return float64(st.armedShards()) })
	if !st.Durable() {
		return
	}
	l := st.WAL()
	reg.CounterFunc("wal_records_total", "Write sets logged.", nil,
		func() int64 { return l.Stats().Records() })
	reg.CounterFunc("wal_batches_total", "Group-commit flushes.", nil,
		func() int64 { return l.Stats().Batches })
	reg.CounterFunc("wal_fsyncs_total", "Segment fsync syscalls.", nil,
		func() int64 { return l.Stats().Fsyncs })
	reg.CounterFunc("wal_dropped_total", "Records refused for exceeding MaxRecord.", nil,
		func() int64 { return l.Stats().Dropped })
	reg.GaugeFunc("wal_segment", "Sequence number of the segment being written.", nil,
		func() float64 { return float64(l.Stats().Segment) })
	reg.GaugeFunc("wal_segments", "Segment files in the data directory; falls when a snapshot completes.", nil,
		func() float64 { return float64(l.Stats().Segments) })
	reg.CounterFunc("wal_snapshots_completed_total", "Snapshots published (SAVE, BGSAVE and scheduled).", nil,
		func() int64 { return l.Stats().Snapshots })
	reg.GaugeFunc("wal_snapshot_last_seconds", "Wall time of the latest completed snapshot, rotation to rename.", nil,
		func() float64 { return l.Stats().SnapshotLast.Seconds() })
	reg.GaugeFunc("wal_snapshot_last_chunks", "Chunk transactions the latest completed snapshot was cut in.", nil,
		func() float64 { n, _ := st.SaveStats(); return float64(n) })
	reg.CounterFunc("wal_snapshot_chunk_retries_total", "Snapshot chunk transactions that had to run again.", nil,
		func() int64 { _, n := st.SaveStats(); return n })
	reg.CounterFunc("wal_snapshot_tail_records_total", "Log records snapshots read back to roll their chunks forward.", nil,
		func() int64 { return l.Stats().SnapshotTail })
	reg.GaugeFunc("wal_lsn_enqueued", "LSN of the last record appended (committed in memory).", nil,
		func() float64 { return float64(l.Stats().Enqueued) })
	reg.GaugeFunc("wal_lsn_durable", "Durable watermark: the LSN up to which records are fsynced.", nil,
		func() float64 { return float64(l.Stats().Durable) })
	reg.GaugeFunc("wal_queue_depth", "Records appended but not yet durable (lsn_enqueued - lsn_durable).", nil,
		func() float64 { return float64(l.Stats().QueueDepth()) })
	reg.GaugeFunc("wal_sticky_error", "1 when the log is poisoned by a write/fsync failure.", nil,
		func() float64 {
			if l.Err() != nil {
				return 1
			}
			return 0
		})
	reg.HistogramFunc("wal_fsync_seconds", "Segment fsync wall time.", nil, l.FsyncLatency)
	reg.SizeHistogramFunc("wal_batch_ops", "Records per group-commit flush.", nil, l.BatchSizes)
}

// slowEntry is one recorded slow command. attempts and waitNs carry
// the engine's verdict on *why* it was slow: a command with many
// attempts or a large wait was a contention victim, one with neither
// was genuinely doing work (a long LRANGE, a DBSIZE scan).
type slowEntry struct {
	unix     int64 // wall-clock seconds when the command finished
	dur      time.Duration
	attempts int64    // transaction attempts (0 for non-transactional commands)
	waitNs   int64    // ns inside the contention manager, across attempts
	args     []string // command name followed by its arguments
}

// slowlog is the ring of the most recent slow commands, mirroring
// Redis's SLOWLOG: its lock is only taken for commands that already
// took ~milliseconds. A server keeps the 128 most recent commands
// that ran for 10ms or more (NewServer); tests set their own threshold
// (zero records everything, a negative one nothing).
type slowlog struct {
	threshold time.Duration
	*ring[slowEntry]
}

// note records a command that ran for dur. argv is copied, strings
// included: the handler reuses the slice for its next request, and a
// borrowing command's strings view the reader's arena (see
// command.borrow). The wall-clock stamp is read only for a command
// that is recorded.
func (sl *slowlog) note(argv []string, dur time.Duration, cost txCost) {
	if sl.threshold < 0 || dur < sl.threshold {
		return
	}
	sl.add(slowEntry{
		unix:     time.Now().Unix(),
		dur:      dur,
		attempts: cost.attempts,
		waitNs:   cost.waitNs,
		args:     keepArgs(nil, argv, true),
	})
}

// logReply serves the GET [n] | LEN | RESET subcommands SLOWLOG and
// ABORTLOG share; name is the command's, upper-cased, and get renders
// the newest n entries.
func logReply(name string, a *args, get func(n int) resp.Value, length func() int64, reset func()) resp.Value {
	sub := strings.ToUpper(a.s[0])
	wrongArgs := func() resp.Value {
		return resp.ErrVal(fmt.Sprintf("ERR wrong number of arguments for '%s|%s' command", strings.ToLower(name), strings.ToLower(sub)))
	}
	switch sub {
	case "GET":
		n := 10
		if len(a.s) > 2 {
			return wrongArgs()
		}
		if len(a.s) == 2 {
			v, err := strconv.Atoi(a.s[1])
			if err != nil {
				return resp.ErrVal("ERR value is not an integer or out of range")
			}
			n = v
		}
		return get(n)
	case "LEN":
		if len(a.s) != 1 {
			return wrongArgs()
		}
		return resp.IntVal(length())
	case "RESET":
		if len(a.s) != 1 {
			return wrongArgs()
		}
		reset()
		return resp.SimpleVal("OK")
	default:
		return resp.ErrVal(fmt.Sprintf("ERR unknown %s subcommand '%s'", name, a.s[0]))
	}
}

// slowlogReply serves SLOWLOG GET [n] | LEN | RESET.
func (srv *Server) slowlogReply(_ *connState, a *args) resp.Value {
	return logReply("SLOWLOG", a, func(n int) resp.Value {
		entries := srv.slow.get(n)
		elems := make([]resp.Value, len(entries))
		for i, l := range entries {
			e := l.e
			cmd := make([]resp.Value, len(e.args))
			for j, a := range e.args {
				cmd[j] = resp.BulkVal(a)
			}
			elems[i] = resp.ArrayVal(
				resp.IntVal(l.id),
				resp.IntVal(e.unix),
				resp.IntVal(e.dur.Microseconds()),
				resp.ArrayVal(cmd...),
				resp.IntVal(e.attempts),
				resp.IntVal(e.waitNs),
			)
		}
		return resp.ArrayVal(elems...)
	}, srv.slow.len, srv.slow.reset)
}

// infoSections lists the sections in rendering order.
var infoSections = []string{"server", "clients", "stats", "commandstats", "stm", "contention", "wal", "keyspace"}

// infoReply serves INFO [section].
func (srv *Server) infoReply(_ *connState, a *args) resp.Value {
	sections := infoSections
	if len(a.s) == 1 {
		want := strings.ToLower(a.s[0])
		found := false
		for _, s := range infoSections {
			if s == want {
				sections, found = []string{s}, true
				break
			}
		}
		if !found {
			return resp.ErrVal(fmt.Sprintf("ERR unknown INFO section '%s'", a.s[0]))
		}
	}
	var b strings.Builder
	for i, s := range sections {
		if i > 0 {
			b.WriteString("\r\n")
		}
		srv.infoSection(&b, s)
	}
	return resp.BulkVal(b.String())
}

func (srv *Server) infoSection(b *strings.Builder, section string) {
	line := func(k string, v any) { fmt.Fprintf(b, "%s:%v\r\n", k, v) }
	switch section {
	case "server":
		b.WriteString("# Server\r\n")
		line("stmkv_version", "0.8.0")
		line("go_version", runtime.Version())
		line("process_id", os.Getpid())
		line("uptime_in_seconds", int64(time.Since(srv.started).Seconds()))
		line("contention_manager", srv.managerName)
		line("shards", srv.store.Shards())
		line("durable", boolInt(srv.store.Durable()))
	case "clients":
		b.WriteString("# Clients\r\n")
		line("connected_clients", srv.sm.clients.Value())
	case "stats":
		b.WriteString("# Stats\r\n")
		var cmds, errs int64
		for _, m := range srv.sm.cmds {
			cmds += m.calls.Value()
			errs += m.errors.Value()
		}
		line("total_connections_received", srv.sm.connections.Value())
		line("total_commands_processed", cmds)
		line("total_command_errors", errs)
		line("reply_flushes", srv.replyFlushes())
		line("sweeper_failures", srv.sm.sweepFailures.Value())
		line("sweeper_reaped_keys", srv.sm.sweepReaped.Value())
		line("expiry_armed_shards", srv.store.armedShards())
		line("bgsave_failures", srv.sm.bgsaveFailures.Value())
		line("slowlog_len", srv.slow.len())
	case "commandstats":
		b.WriteString("# Commandstats\r\n")
		byName := append([]*command(nil), commandTable...)
		sort.Slice(byName, func(i, j int) bool { return byName[i].name < byName[j].name })
		for _, cmd := range byName {
			m := &srv.sm.cmds[cmd.idx]
			calls := m.calls.Value()
			if calls == 0 {
				continue
			}
			snap := m.lat.Snapshot()
			fmt.Fprintf(b, "cmdstat_%s:calls=%d,errors=%d,p50_usec=%d,p99_usec=%d\r\n",
				strings.ToLower(cmd.name), calls, m.errors.Value(),
				snap.Quantile(0.50).Microseconds(), snap.Quantile(0.99).Microseconds())
		}
	case "stm":
		b.WriteString("# Stm\r\n")
		s := srv.store.STM().TotalStats()
		line("manager", srv.managerName)
		line("commits", s.Commits)
		line("aborts", s.Aborts)
		line("conflicts", s.Conflicts)
		line("enemy_aborts", s.EnemyAborts)
		line("opens", s.Opens)
		line("wait_ns", s.WaitNs)
		line("backoff_ns", s.BackoffNs)
		fmt.Fprintf(b, "abort_rate:%.4f\r\n", s.AbortRate())
		lat := srv.sm.commitLat.Snapshot()
		line("commit_p50_usec", lat.Quantile(0.50).Microseconds())
		line("commit_p99_usec", lat.Quantile(0.99).Microseconds())
		tries := srv.sm.commitTries.Snapshot()
		fmt.Fprintf(b, "attempts_per_commit:%.2f\r\n", meanOf(tries.Sum(), tries.Count()))
	case "contention":
		// The forensics section: Aborts split by cause. Validation and
		// CAS-race aborts dominating means the manager let doomed work
		// run to its commit point; enemy aborts dominating means open-
		// time conflicts are being resolved by killing someone.
		b.WriteString("# Contention\r\n")
		s := srv.store.STM().TotalStats()
		line("aborts_enemy", s.AbortsEnemy)
		line("aborts_validation", s.AbortsValidation)
		line("aborts_validation_held", s.AbortsValidationHeld)
		line("aborts_cas_race", s.AbortsCASRace)
		line("aborts_user_error", s.AbortsUser)
		line("wait_ns", s.WaitNs)
		line("abortlog_len", srv.abort.Len())
	case "wal":
		b.WriteString("# Wal\r\n")
		if !srv.store.Durable() {
			line("wal_enabled", 0)
			return
		}
		line("wal_enabled", 1)
		l := srv.store.WAL()
		st := l.Stats()
		line("records", st.Records())
		line("batches", st.Batches)
		line("fsyncs", st.Fsyncs)
		line("dropped", st.Dropped)
		line("segment", st.Segment)
		line("wal_segments", st.Segments)
		chunks, retries := srv.store.SaveStats()
		line("snapshots_completed", st.Snapshots)
		line("snapshot_last_usec", st.SnapshotLast.Microseconds())
		line("snapshot_last_chunks", chunks)
		line("snapshot_chunk_retries", retries)
		line("snapshot_tail_records", st.SnapshotTail)
		line("lsn_enqueued", st.Enqueued)
		line("lsn_durable", st.Durable)
		line("queue_depth", st.QueueDepth())
		lat := l.FsyncLatency()
		line("fsync_p50_usec", lat.Quantile(0.50).Microseconds())
		line("fsync_p99_usec", lat.Quantile(0.99).Microseconds())
		sizes := l.BatchSizes()
		fmt.Fprintf(b, "ops_per_batch:%.2f\r\n", meanOf(sizes.Sum(), sizes.Count()))
		if err := l.Err(); err != nil {
			line("sticky_error", err.Error())
		} else {
			line("sticky_error", "none")
		}
	case "keyspace":
		b.WriteString("# Keyspace\r\n")
		fmt.Fprintf(b, "db0:keys=%d\r\n", srv.store.PeekLen())
	}
}

func boolInt(v bool) int {
	if v {
		return 1
	}
	return 0
}

// meanOf computes sum/count as a float, zero when empty — for
// dimensionless histograms whose Sum is stored as a time.Duration.
func meanOf(sum time.Duration, count uint64) float64 {
	if count == 0 {
		return 0
	}
	return float64(sum) / float64(count)
}
