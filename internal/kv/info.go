package kv

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/resp"
	"repro/internal/stm"
	"repro/internal/wal"
)

// This file is the server's observability surface: per-command
// metrics, the SLOWLOG ring, and serverStats, the one table INFO and
// /metrics both render. The paper-relevant number here is the
// per-manager wait time: a contention manager without a progress
// guarantee shows up as stm_wait_ns_total exploding while commits
// flatline (ROADMAP's karma convoy), which no throughput counter
// reveals.

// ServerOption configures a Server beyond its store.
type ServerOption func(*Server)

// WithManagerName labels the engine metrics with the contention
// manager the server was started with, so dashboards can tell a karma
// fleet from a greedy one.
func WithManagerName(name string) ServerOption {
	return func(srv *Server) { srv.managerName = name }
}

// cmdMetrics is one command's counters and latency distribution,
// labelled by name, the command's name in lower case.
type cmdMetrics struct {
	name          string
	calls, errors atomic.Int64
	lat           obs.Histogram
}

// serverMetrics bundles the server's own instruments, which the hot
// path updates and INFO and WriteMetrics read.
type serverMetrics struct {
	connections atomic.Int64
	clients     atomic.Int64
	// cmds is indexed by command.idx — the fixed metric universe, set
	// up front so the hot path is an index. The last slot is
	// unknownCommand's.
	cmds []cmdMetrics

	// commitLat and commitTries are stm_commit_seconds and
	// stm_commit_attempts: the latency and attempt count of every
	// command transaction that committed (see observe).
	commitLat   obs.Histogram
	commitTries obs.Histogram

	sweepFailures  atomic.Int64
	sweepReaped    atomic.Int64
	bgsaveFailures atomic.Int64
	replyFlushes   atomic.Int64
}

// newCmdMetrics returns a slot for every command and the unknown one.
func newCmdMetrics() []cmdMetrics {
	cmds := make([]cmdMetrics, len(commandTable)+1)
	for _, cmd := range commandTable {
		cmds[cmd.idx].name = strings.ToLower(cmd.name)
	}
	cmds[unknownCommand.idx].name = strings.ToLower(unknownCommand.name)
	return cmds
}

// WriteMetrics writes the server's statistics in the Prometheus text
// exposition format, as -metrics serves them at /metrics: every
// serverStats row that names a series, each command's calls, errors
// and latency, the commit histograms and, on a durable store, the
// log's fsync and batch-size histograms. One reading serves the scrape.
func (srv *Server) WriteMetrics(w io.Writer) {
	r := srv.reading()
	durable := srv.store.Durable()
	mgr := []string{"manager", srv.managerName}
	for _, row := range serverStats {
		if row.metric == "" || row.durable && !durable {
			continue
		}
		var labels []string
		if row.manager {
			labels = mgr
		}
		if row.gauge {
			obs.WriteFamily(w, row.metric, row.help, "gauge")
			_, v := render(row.read(r))
			obs.WriteFloat(w, row.metric, v, labels...)
		} else {
			obs.WriteFamily(w, row.metric, row.help, "counter")
			obs.WriteInt(w, row.metric, row.read(r).(int64), labels...)
		}
	}

	cmds := srv.sm.cmds
	obs.WriteFamily(w, "stmkv_commands_total", "Commands processed.", "counter")
	for i := range cmds {
		obs.WriteInt(w, "stmkv_commands_total", cmds[i].calls.Load(), "cmd", cmds[i].name)
	}
	obs.WriteFamily(w, "stmkv_command_errors_total", "Commands answered with an error.", "counter")
	for i := range cmds {
		obs.WriteInt(w, "stmkv_command_errors_total", cmds[i].errors.Load(), "cmd", cmds[i].name)
	}
	obs.WriteFamily(w, "stmkv_command_seconds", "Command wall time, decode to reply.", "histogram")
	for i := range cmds {
		obs.WriteHistogram(w, "stmkv_command_seconds", cmds[i].lat.Snapshot(), 1e-9, "cmd", cmds[i].name)
	}

	histogram := func(name, help string, h *metrics.Histogram, scale float64, labels ...string) {
		obs.WriteFamily(w, name, help, "histogram")
		obs.WriteHistogram(w, name, h, scale, labels...)
	}
	histogram("stm_commit_seconds", "Committed command transactions (sweeper and snapshot chunks excluded): read to commit, retries included.",
		srv.sm.commitLat.Snapshot(), 1e-9, mgr...)
	histogram("stm_commit_attempts", "Attempts per committed command transaction (1 = first try).",
		srv.sm.commitTries.Snapshot(), 1, mgr...)
	if durable {
		l := srv.store.WAL()
		histogram("wal_fsync_seconds", "Segment fsync wall time.", l.FsyncLatency(), 1e-9)
		histogram("wal_batch_ops", "Records per group-commit flush.", l.BatchSizes(), 1)
	}
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
	m.calls.Add(1)
	if h.reply.IsError() {
		m.errors.Add(1)
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

// infoReply serves INFO [section]. One reading serves the whole reply.
func (srv *Server) infoReply(_ *connState, a *args) resp.Value {
	sections := infoSections
	if len(a.s) == 1 {
		want := strings.ToLower(a.s[0])
		if !slices.Contains(infoSections, want) {
			return resp.ErrVal(fmt.Sprintf("ERR unknown INFO section '%s'", a.s[0]))
		}
		sections = []string{want}
	}
	r := srv.reading()
	var b strings.Builder
	for i, section := range sections {
		if i > 0 {
			b.WriteString("\r\n")
		}
		fmt.Fprintf(&b, "# %s%s\r\n", strings.ToUpper(section[:1]), section[1:])
		if section == "commandstats" {
			// One line per command that ran, by name.
			byName := append([]*command(nil), commandTable...)
			sort.Slice(byName, func(i, j int) bool { return byName[i].name < byName[j].name })
			for _, cmd := range byName {
				m := &srv.sm.cmds[cmd.idx]
				if calls := m.calls.Load(); calls > 0 {
					snap := m.lat.Snapshot()
					fmt.Fprintf(&b, "cmdstat_%s:calls=%d,errors=%d,p50_usec=%d,p99_usec=%d\r\n",
						m.name, calls, m.errors.Load(),
						snap.Quantile(0.50).Microseconds(), snap.Quantile(0.99).Microseconds())
				}
			}
		}
		for _, row := range serverStats {
			if row.section == section && (!row.durable || srv.store.Durable()) {
				text, _ := render(row.read(r))
				fmt.Fprintf(&b, "%s:%s\r\n", row.key, text)
			}
		}
	}
	return resp.BulkVal(b.String())
}

// stat is one scalar statistic of the server, a row of serverStats:
// an INFO line and, if metric is set, a /metrics series.
type stat struct {
	section, key string
	// The series: its name and help, whether it is a gauge (else a
	// counter), and whether it carries the manager label.
	metric, help   string
	gauge, manager bool
	// durable rows exist only on a store with a log, in both views.
	durable bool
	// read returns the value as render takes it: a number is an int64.
	read func(*reading) any
}

// keyCount is the live key count, which INFO writes as keys=N.
type keyCount int64

// render formats a row's value for each view: INFO's text and the
// /metrics gauge. A statistic the two views show in different units
// carries its typed value: a time.Duration is microseconds in INFO and
// seconds in /metrics, and an error (nil when healthy) is its text or
// "none" in INFO and 1 or 0 in /metrics.
func render(v any) (info string, gauge float64) {
	switch v := v.(type) {
	case nil:
		return "none", 0
	case error:
		return v.Error(), 1
	case time.Duration:
		return strconv.FormatInt(v.Microseconds(), 10), v.Seconds()
	case keyCount:
		return "keys=" + strconv.FormatInt(int64(v), 10), float64(v)
	case int64:
		return strconv.FormatInt(v, 10), float64(v)
	case string:
		return v, 0
	}
	panic(fmt.Sprintf("kv: statistic of type %T", v))
}

// reading is one look at the server's statistics. It fetches the
// engine's totals, the log's counters and the last save's on first
// use, once, so the rows of one INFO reply agree with each other.
type reading struct {
	srv    *Server
	engine func() stm.Stats
	log    func() wal.Stats
	save   func() (chunks, retries int64)
}

func (srv *Server) reading() *reading {
	return &reading{srv: srv,
		engine: sync.OnceValue(srv.store.STM().TotalStats),
		log:    sync.OnceValue(srv.store.WAL().Stats),
		save:   sync.OnceValues(srv.store.SaveStats)}
}

// mean is a size histogram's mean as INFO prints it, 0 when empty.
func mean(h *metrics.Histogram) string {
	return strconv.FormatFloat(float64(h.Sum())/float64(max(h.Count(), 1)), 'f', 2, 64)
}

// serverStats is every scalar statistic of the server, in INFO order.
// INFO renders a section from its rows; WriteMetrics writes each row
// that names a series.
var serverStats = []stat{
	{section: "server", key: "stmkv_version", read: func(*reading) any { return "0.8.0" }},
	{section: "server", key: "go_version", read: func(*reading) any { return runtime.Version() }},
	{section: "server", key: "process_id", read: func(*reading) any { return int64(os.Getpid()) }},
	{section: "server", key: "uptime_in_seconds", read: func(r *reading) any { return int64(time.Since(r.srv.started).Seconds()) }},
	{section: "server", key: "contention_manager", read: func(r *reading) any { return r.srv.managerName }},
	{section: "server", key: "shards", read: func(r *reading) any { return int64(r.srv.store.Shards()) }},
	{section: "server", key: "durable", read: func(r *reading) any { return int64(boolInt(r.srv.store.Durable())) }},

	{section: "clients", key: "connected_clients", read: func(r *reading) any { return r.srv.sm.clients.Load() },
		metric: "stmkv_connected_clients", help: "Connections currently open.", gauge: true},

	{section: "stats", key: "total_connections_received", read: func(r *reading) any { return r.srv.sm.connections.Load() },
		metric: "stmkv_connections_total", help: "Connections accepted."},
	{section: "stats", key: "total_commands_processed", read: func(r *reading) any { n, _ := r.srv.cmdTotals(); return n }},
	{section: "stats", key: "total_command_errors", read: func(r *reading) any { _, n := r.srv.cmdTotals(); return n }},
	{section: "stats", key: "reply_flushes", read: func(r *reading) any { return r.srv.sm.replyFlushes.Load() },
		metric: "stmkv_reply_flushes_total", help: "Batches of replies sent to clients; commands per batch is stmkv_commands_total over this."},
	{section: "stats", key: "sweeper_failures", read: func(r *reading) any { return r.srv.sm.sweepFailures.Load() },
		metric: "stmkv_sweeper_failures_total", help: "Background TTL sweeper passes that failed."},
	{section: "stats", key: "sweeper_reaped_keys", read: func(r *reading) any { return r.srv.sm.sweepReaped.Load() },
		metric: "stmkv_sweeper_reaped_total", help: "Expired keys removed by the background sweeper."},
	{section: "stats", key: "expiry_armed_shards", read: func(r *reading) any { return int64(r.srv.store.armedShards()) },
		metric: "stmkv_expiry_armed_shards", help: "Shards that may hold a key with a TTL; the sweeper skips the rest.", gauge: true},
	{section: "stats", key: "bgsave_failures", read: func(r *reading) any { return r.srv.sm.bgsaveFailures.Load() },
		metric: "stmkv_bgsave_failures_total", help: "Background saves (scheduled or BGSAVE) that failed."},
	{section: "stats", key: "slowlog_len", read: func(r *reading) any { return r.srv.slow.len() }},

	{section: "stm", key: "manager", read: func(r *reading) any { return r.srv.managerName }},
	{section: "stm", key: "commits", read: func(r *reading) any { return r.engine().Commits },
		metric: "stm_commits_total", help: "Committed logical transactions.", manager: true},
	{section: "stm", key: "aborts", read: func(r *reading) any { return r.engine().Aborts },
		metric: "stm_aborts_total", help: "Aborted transaction attempts.", manager: true},
	{section: "stm", key: "conflicts", read: func(r *reading) any { return r.engine().Conflicts },
		metric: "stm_conflicts_total", help: "Conflicts observed.", manager: true},
	{section: "stm", key: "enemy_aborts", read: func(r *reading) any { return r.engine().EnemyAborts },
		metric: "stm_enemy_aborts_total", help: "Conflicts resolved by aborting the enemy.", manager: true},
	{section: "stm", key: "opens", read: func(r *reading) any { return r.engine().Opens }},
	{section: "stm", key: "wait_ns", read: func(r *reading) any { return r.engine().WaitNs },
		metric: "stm_wait_ns_total", help: "Nanoseconds in the engine's wait on a contention manager's ruling (policy waiting).", manager: true},
	{section: "stm", key: "backoff_ns", read: func(r *reading) any { return r.engine().BackoffNs },
		metric: "stm_backoff_ns_total", help: "Nanoseconds in engine-level backoff (acquisition CAS retries).", manager: true},
	{section: "stm", key: "abort_rate", read: func(r *reading) any { s := r.engine(); return strconv.FormatFloat(s.AbortRate(), 'f', 4, 64) }},
	{section: "stm", key: "commit_p50_usec", read: func(r *reading) any { return r.srv.sm.commitLat.Snapshot().Quantile(0.50).Microseconds() }},
	{section: "stm", key: "commit_p99_usec", read: func(r *reading) any { return r.srv.sm.commitLat.Snapshot().Quantile(0.99).Microseconds() }},
	{section: "stm", key: "attempts_per_commit", read: func(r *reading) any { return mean(r.srv.sm.commitTries.Snapshot()) }},

	// The forensics section, aborts by cause. Validation and CAS-race
	// aborts dominating: the manager let doomed work run to its commit
	// point; enemy aborts: open-time conflicts end by killing someone.
	{section: "contention", key: "aborts_enemy", read: func(r *reading) any { return r.engine().AbortsEnemy },
		metric: "stm_aborts_enemy_total", help: "Aborts caused by an enemy's manager (or the self-abort ruling).", manager: true},
	{section: "contention", key: "aborts_validation", read: func(r *reading) any { return r.engine().AbortsValidation },
		metric: "stm_aborts_validation_total", help: "Aborts from read-set validation failure.", manager: true},
	{section: "contention", key: "aborts_validation_held", read: func(r *reading) any { return r.engine().AbortsValidationHeld },
		metric: "stm_aborts_validation_held_total", help: "Validation aborts where a read's commit stripe was held by another committing writer (a subset of stm_aborts_validation_total).", manager: true},
	{section: "contention", key: "aborts_cas_race", read: func(r *reading) any { return r.engine().AbortsCASRace },
		metric: "stm_aborts_cas_race_total", help: "Aborts from losing the commit status CAS after validation.", manager: true},
	{section: "contention", key: "aborts_user_error", read: func(r *reading) any { return r.engine().AbortsUser },
		metric: "stm_aborts_user_total", help: "Transactions ended by a non-retryable user error.", manager: true},
	{section: "contention", key: "wait_ns", read: func(r *reading) any { return r.engine().WaitNs }},
	{section: "contention", key: "abortlog_len", read: func(r *reading) any { return r.srv.abort.Len() }},

	{section: "wal", key: "wal_enabled", read: func(r *reading) any { return int64(boolInt(r.srv.store.Durable())) }},
	{section: "wal", key: "records", durable: true, read: func(r *reading) any { return r.log().Records() },
		metric: "wal_records_total", help: "Write sets logged."},
	{section: "wal", key: "batches", durable: true, read: func(r *reading) any { return r.log().Batches },
		metric: "wal_batches_total", help: "Group-commit flushes."},
	{section: "wal", key: "fsyncs", durable: true, read: func(r *reading) any { return r.log().Fsyncs },
		metric: "wal_fsyncs_total", help: "Segment fsync syscalls."},
	{section: "wal", key: "dropped", durable: true, read: func(r *reading) any { return r.log().Dropped },
		metric: "wal_dropped_total", help: "Records refused for exceeding MaxRecord."},
	{section: "wal", key: "segment", durable: true, read: func(r *reading) any { return int64(r.log().Segment) },
		metric: "wal_segment", help: "Sequence number of the segment being written.", gauge: true},
	{section: "wal", key: "wal_segments", durable: true, read: func(r *reading) any { return int64(r.log().Segments) },
		metric: "wal_segments", help: "Segment files in the data directory; falls when a snapshot completes.", gauge: true},
	{section: "wal", key: "snapshots_completed", durable: true, read: func(r *reading) any { return r.log().Snapshots },
		metric: "wal_snapshots_completed_total", help: "Snapshots published (SAVE, BGSAVE and scheduled)."},
	{section: "wal", key: "snapshot_last_usec", durable: true, read: func(r *reading) any { return r.log().SnapshotLast },
		metric: "wal_snapshot_last_seconds", help: "Wall time of the latest completed snapshot, rotation to rename.", gauge: true},
	{section: "wal", key: "snapshot_last_chunks", durable: true, read: func(r *reading) any { n, _ := r.save(); return n },
		metric: "wal_snapshot_last_chunks", help: "Chunk transactions the latest completed snapshot was cut in.", gauge: true},
	{section: "wal", key: "snapshot_chunk_retries", durable: true, read: func(r *reading) any { _, n := r.save(); return n },
		metric: "wal_snapshot_chunk_retries_total", help: "Snapshot chunk transactions that had to run again."},
	{section: "wal", key: "snapshot_tail_records", durable: true, read: func(r *reading) any { return r.log().SnapshotTail },
		metric: "wal_snapshot_tail_records_total", help: "Log records snapshots read back to roll their chunks forward."},
	{section: "wal", key: "lsn_enqueued", durable: true, read: func(r *reading) any { return int64(r.log().Enqueued) },
		metric: "wal_lsn_enqueued", help: "LSN of the last record appended (committed in memory).", gauge: true},
	{section: "wal", key: "lsn_durable", durable: true, read: func(r *reading) any { return int64(r.log().Durable) },
		metric: "wal_lsn_durable", help: "Durable watermark: the LSN up to which records are fsynced.", gauge: true},
	{section: "wal", key: "queue_depth", durable: true, read: func(r *reading) any { return int64(r.log().QueueDepth()) },
		metric: "wal_queue_depth", help: "Records appended but not yet durable (lsn_enqueued - lsn_durable).", gauge: true},
	{section: "wal", key: "fsync_p50_usec", durable: true, read: func(r *reading) any { return r.srv.store.WAL().FsyncLatency().Quantile(0.50).Microseconds() }},
	{section: "wal", key: "fsync_p99_usec", durable: true, read: func(r *reading) any { return r.srv.store.WAL().FsyncLatency().Quantile(0.99).Microseconds() }},
	{section: "wal", key: "ops_per_batch", durable: true, read: func(r *reading) any { return mean(r.srv.store.WAL().BatchSizes()) }},
	{section: "wal", key: "sticky_error", durable: true, read: func(r *reading) any { return r.srv.store.WAL().Err() },
		metric: "wal_sticky_error", help: "1 when the log is poisoned by a write/fsync failure.", gauge: true},

	{section: "keyspace", key: "db0", read: func(r *reading) any { return keyCount(r.srv.store.PeekLen()) },
		metric: "stmkv_keys", help: "Approximate live keys (expired excluded).", gauge: true},
}

// cmdTotals sums the per-command calls and errors.
func (srv *Server) cmdTotals() (calls, errs int64) {
	for i := range srv.sm.cmds {
		m := &srv.sm.cmds[i]
		calls, errs = calls+m.calls.Load(), errs+m.errors.Load()
	}
	return calls, errs
}

func boolInt(v bool) int {
	if v {
		return 1
	}
	return 0
}
