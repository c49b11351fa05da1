package main

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/stm"
)

// This file is the traced run (--trace 1). It never feeds an end-to-end
// number. Three parts:
//
//	(A) counts over the wire: a fresh child server, one connection, a
//	    fixed number of request units, the server's own counters (INFO)
//	    and /proc/<pid> read before and after. One client and no timers
//	    (the server's TTL sweeper is switched off for this child), so
//	    the counts can repeat exactly.
//	(C) contention under load: the same child, all connections, the
//	    client timing its own three segments of every request — the
//	    traced client — for a fraction of --seconds; abort causes,
//	    manager waits and group-commit ratios come from here, since one
//	    connection alone conflicts with nobody. For engine-contended
//	    this part is the in-process loop itself.
//	(B) the ladder, in ladder.go.
//
// wire-depth1 adds the two open-loop phases, wire-durable the kill -9
// recovery: both need the server, neither is an end-to-end metric of
// the other workloads, so they are reported here (see README.md).

// The open loop's fixed total rates: about 20 % and 50 % of what the
// closed loop sustains on the box the benchmark was sized on.
var openRates = []struct {
	name string
	rate float64
}{{"open8k", 8000}, {"open20k", 20000}}

// openLatencyLimit is the latency limit a rate must meet at its high
// percentile to count as sustained.
const openLatencyLimit = time.Millisecond

// info is a parsed INFO reply: "section.key" → value.
type info map[string]float64

func readInfo(a *adminConn) (info, error) {
	v, err := a.do("INFO")
	if err != nil {
		return nil, err
	}
	out := make(info)
	section := ""
	for _, line := range strings.Split(v.Str, "\r\n") {
		if rest, ok := strings.CutPrefix(line, "# "); ok {
			section = strings.ToLower(rest)
			continue
		}
		k, val, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		if rest, ok := strings.CutPrefix(val, "keys="); ok { // keyspace: db0:keys=N
			val = rest
		}
		if f, err := strconv.ParseFloat(val, 64); err == nil {
			out[section+"."+k] = f
		}
	}
	return out, nil
}

// delta is after − before for one INFO key.
func (after info) delta(before info, key string) float64 { return after[key] - before[key] }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// contention sets the stm.* and core.* ratios from two engine
// snapshots taken around a loaded phase.
func contention(rep *report, before, after stm.Stats) {
	commits := float64(after.Commits - before.Commits)
	aborts := float64(after.Aborts - before.Aborts)
	rep.set("stm.abort_ratio", ratio(aborts, commits+aborts))
	rep.set("stm.aborts_validation_share", ratio(float64(after.AbortsValidation-before.AbortsValidation), aborts))
	rep.set("stm.aborts_casrace_share", ratio(float64(after.AbortsCASRace-before.AbortsCASRace), aborts))
	rep.set("core.aborts_enemy_share", ratio(float64(after.AbortsEnemy-before.AbortsEnemy), aborts))
	rep.set("stm.backoff_ns_per_commit", ratio(float64(after.BackoffNs-before.BackoffNs), commits))
	rep.set("core.wait_ns_per_commit", ratio(float64(after.WaitNs-before.WaitNs), commits))
	rep.set("core.conflicts_per_commit", ratio(float64(after.Conflicts-before.Conflicts), commits))
	rep.set("core.enemy_aborts_per_commit", ratio(float64(after.EnemyAborts-before.EnemyAborts), commits))
}

// engineStats reads the engine counters out of an INFO reply.
func (i info) engineStats() stm.Stats {
	n := func(key string) int64 { return int64(i[key]) }
	return stm.Stats{
		Commits: n("stm.commits"), Aborts: n("stm.aborts"), Conflicts: n("stm.conflicts"),
		EnemyAborts: n("stm.enemy_aborts"), Opens: n("stm.opens"), WaitNs: n("stm.wait_ns"), BackoffNs: n("stm.backoff_ns"),
		AbortsEnemy: n("contention.aborts_enemy"), AbortsValidation: n("contention.aborts_validation"), AbortsCASRace: n("contention.aborts_cas_race"),
	}
}

func runTrace(cfg config, sp spec, rep *report) error {
	tr := &tracer{Workload: sp.name, Seed: cfg.seed}
	streams := make([]*stream, cfg.nconn)
	for c := range streams {
		streams[c] = genStream(sp, cfg.seed, c, cfg.nconn, cfg.streamUnits)
	}
	if err := traceWire(cfg, sp, streams, rep); err != nil {
		return err
	}
	if sp.name == wlEngine {
		if err := traceEngine(cfg, sp, streams, rep); err != nil {
			return err
		}
	}
	if err := runLadder(cfg, sp, streams[0], rep, tr); err != nil {
		return err
	}
	if err := tr.write(tracePath(cfg)); err != nil {
		return err
	}
	fmt.Printf("info spans written to %s\n", tracePath(cfg))
	return nil
}

// traceWire is parts (A) and (C) on a child server, plus the phases
// only one workload has.
func traceWire(cfg config, sp spec, streams []*stream, rep *report) error {
	// -sweep 0: the TTL sweeper commits a transaction per tick whether or
	// not anything expired, which would make the counts depend on how
	// long the pass took.
	ws, err := setupServer(cfg, sp, cfg.nconn, "-sweep", "0")
	if err != nil {
		return err
	}
	defer ws.teardown()
	admin, err := dialAdmin(ws.addr)
	if err != nil {
		return err
	}
	defer admin.Close()

	// (A) one connection, a fixed count.
	units := cfg.traceUnits
	if units <= 0 {
		units = sp.traceUnits
	}
	info0, err := readInfo(admin)
	if err != nil {
		return err
	}
	proc0, err := readProc(ws.pid())
	if err != nil {
		return err
	}
	workers := newWorkers(sp, ws.conns, streams, traced(cfg), true)
	one := workers[0]
	one.limit = int64(units)
	if err := one.run(&control{}); err != nil {
		return err
	}
	proc1, err := readProc(ws.pid())
	if err != nil {
		return err
	}
	info1, err := readInfo(admin)
	if err != nil {
		return err
	}
	rep.count(one.tally)
	ops := float64(one.ops.Load())
	rep.set("client.encode_write_ns_op", float64(one.writeNs)/ops)
	rep.set("client.wait_ns_op", float64(one.waitNs)/ops)
	rep.set("client.read_decode_ns_op", float64(one.readNs)/ops)
	rep.set("os.read_syscalls_op", float64(proc1.syscr-proc0.syscr)/ops)
	rep.set("os.write_syscalls_op", float64(proc1.syscw-proc0.syscw)/ops)
	rep.set("os.ctx_switches_op", float64(proc1.ctxSwitches-proc0.ctxSwitches)/ops)
	rep.set("stm.commits_op", info1.delta(info0, "stm.commits")/ops)
	rep.set("stm.opens_per_commit", ratio(info1.delta(info0, "stm.opens"), info1.delta(info0, "stm.commits")))
	rep.set("kv.keys_live", info1["keyspace.db0"])
	fmt.Printf("info part A: %d request units = %.0f ops on one connection: %.0f commits, %.0f opens, %d read and %d write syscalls, %.0f log records\n",
		units, ops, info1.delta(info0, "stm.commits"), info1.delta(info0, "stm.opens"),
		proc1.syscr-proc0.syscr, proc1.syscw-proc0.syscw, info1.delta(info0, "wal.records"))

	// (C) every connection, the traced client.
	// The first connection's worker carries on from where part A stopped,
	// so its count of acknowledged units stays the journal of that stream.
	one.limit = 0
	lp := startLoad(workers)
	time.Sleep(cfg.warmup / 2)
	infoC0, err := readInfo(admin)
	if err != nil {
		return err
	}
	win := lp.measure(traced(cfg))
	infoC1, err := readInfo(admin)
	if err != nil {
		return err
	}
	var dataBytes int64
	if sp.durable {
		if dataBytes, err = dirBytes(ws.dir); err != nil {
			return err
		}
		lp.ctl.dying.Store(true)
		ws.kill()
	}
	lat := summarize(lp.finish(rep))
	rep.set("client.lat_p99_us", lat.hi)
	rep.set("client.window_spread", spread(win.rates))
	rep.set("client.traced_throughput_ops_s", win.rate())
	rep.set("kvserver.cmd_errors", infoC1.delta(info0, "stats.total_command_errors"))
	fmt.Printf("info part C: traced client, windows %s ops/s; latency n=%d p50=%.1fus p%g=%.1fus\n", fmtRates(win.rates), lat.n, lat.p50, lat.hiQ*100, lat.hi)
	if sp.name != wlEngine {
		contention(rep, infoC0.engineStats(), infoC1.engineStats())
	}

	if sp.durable {
		records := infoC1.delta(infoC0, "wal.records")
		rep.set("wal.fsyncs_per_record", ratio(infoC1.delta(infoC0, "wal.fsyncs"), records))
		rep.set("wal.ops_per_batch", ratio(records, infoC1.delta(infoC0, "wal.batches")))
		rep.set("wal.fsync_p50_us", infoC1["wal.fsync_p50_usec"])
		rep.set("wal.dropped", infoC1.delta(info0, "wal.dropped"))
		user := ws.pop.userBytes
		for i, w := range lp.workers {
			user += ackedUserBytes(w, streams[i])
		}
		rep.set("wal.bytes_per_user_byte", ratio(float64(dataBytes), float64(user)))
		rec, err := recoverAndCheck(cfg, sp, ws, lp.workers, streams, rep)
		if err != nil {
			return err
		}
		rep.set("wal.recover_us_per_op", rec.usPerOp())
		fmt.Printf("info recovery: %.1f ms to PING, %d ops replayed (kill -9 keeps the OS page cache: this checks the log protocol, not the device)\n",
			rec.toPing.Seconds()*1e3, rec.ops)
	} else {
		rep.na("wal.fsyncs_per_record", "wal.ops_per_batch", "wal.fsync_p50_us", "wal.dropped", "wal.bytes_per_user_byte", "wal.recover_us_per_op")
	}

	if sp.name == wlDepth1 {
		return traceOpenLoops(cfg, ws, streams, rep)
	}
	for _, r := range openRates {
		rep.na("client."+r.name+"_lat_p50_us", "client."+r.name+"_lat_p99_us")
	}
	rep.na("client.gen_lag_p99_us", "client.max_rate_ok_ops_s")
	return nil
}

// tracedShare is the length of part (C), and of each open-loop phase,
// as a share of --seconds.
const tracedShare = 0.4

func traced(cfg config) time.Duration {
	return time.Duration(cfg.seconds * tracedShare * float64(time.Second))
}

// ackedUserBytes is the key + value bytes of the writes a worker had
// acknowledged: the denominator of the log's write amplification.
func ackedUserBytes(w *closedWorker, st *stream) int64 {
	const keyLen = 10
	bytesOf := func(units []unit) int64 {
		var n int64
		for _, u := range units {
			for k := u.c0; k < u.c1; k++ {
				switch c := &st.cmds[k]; c.op {
				case opSet:
					n += keyLen + int64(c.vlen)
				case opIncr, opDel:
					n += keyLen
				}
			}
		}
		return n
	}
	perCycle := bytesOf(st.units)
	cycles, rest := w.acked/int64(len(st.units)), w.acked%int64(len(st.units))
	return cycles*perCycle + bytesOf(st.units[:rest])
}

// traceOpenLoops runs wire-depth1's fixed-rate phases.
func traceOpenLoops(cfg config, ws *wireServer, streams []*stream, rep *report) error {
	d := traced(cfg)
	var lagP99, maxOK float64
	for _, r := range openRates {
		res, err := openLoop(ws.conns, streams, r.rate, d)
		if err != nil {
			return err
		}
		rep.count(res.tally)
		lat, lag := summarize(res.lat), summarize(res.lag)
		rep.set("client."+r.name+"_lat_p50_us", lat.p50)
		rep.set("client."+r.name+"_lat_p99_us", lat.hi)
		lagP99 = max(lagP99, lag.hi)
		// Sustained: the high percentile meets the limit and the server
		// was not falling behind — at most the limit's worth of requests
		// still unanswered when the last one was sent.
		if lat.hi <= float64(openLatencyLimit.Microseconds()) && float64(res.backlog) <= r.rate*openLatencyLimit.Seconds() {
			maxOK = max(maxOK, r.rate)
		}
		fmt.Printf("info open loop %.0f req/s for %s: n=%d p50=%.1fus p%g=%.1fus max=%.1fus; send lag p%g=%.1fus; unanswered at end %d\n",
			r.rate, d, lat.n, lat.p50, lat.hiQ*100, lat.hi, lat.maxMicro, lag.hiQ*100, lag.hi, res.backlog)
	}
	rep.set("client.gen_lag_p99_us", lagP99)
	rep.set("client.max_rate_ok_ops_s", maxOK)
	return nil
}

// traceEngine is part (C) for engine-contended: the in-process loop,
// with the engine's own counters read around it.
func traceEngine(cfg config, sp spec, streams []*stream, rep *report) error {
	st, _, err := engineSetup(sp, cfg.seed)
	if err != nil {
		return err
	}
	ep := startEngine(st, streams, traced(cfg))
	time.Sleep(cfg.warmup / 2)
	before := st.STM().TotalStats()
	win := ep.measure(traced(cfg))
	after := st.STM().TotalStats()
	lat := summarize(ep.finish(rep))
	checkJobs(st, rep)
	contention(rep, before, after)
	fmt.Printf("info engine loop: windows %s tx/s; latency n=%d p50=%.2fus p%g=%.2fus; abort ratio %.4f\n",
		fmtRates(win.rates), lat.n, lat.p50, lat.hiQ*100, lat.hi, rep.values["stm.abort_ratio"])
	// The in-process loop is this workload's load: its latency and
	// spread replace the wire pass's.
	rep.set("client.lat_p99_us", lat.hi)
	rep.set("client.window_spread", spread(win.rates))
	rep.set("client.traced_throughput_ops_s", win.rate())
	return nil
}
