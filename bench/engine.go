package main

import (
	"errors"
	"fmt"
	"os"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/kv"
	"repro/internal/stm"
)

// This file is engine-contended: the paper's workload. No socket, no
// log — every nanosecond is inside a transaction on hot objects, so
// container, stm and core do all the work and conflicts are the common
// case even with two goroutines.

var (
	errPendingEmpty = errors.New("job pipeline: pending list ran empty")
	errNotActive    = errors.New("job pipeline: completed member was not active")
)

// applyJob is the transaction body. Everything it decides on was drawn
// before the transaction began, so a retry replays the same job.
func applyJob(st *kv.Store, tx *stm.Tx, now int64, j *job) error {
	// The transfer comes first: the two accounts are then open for
	// writing for the whole transaction, not for its last instants, and
	// with eight accounts two concurrent transactions share one about
	// half the time — which is what makes conflict the common case on
	// two cores.
	if _, err := st.IncrTx(tx, now, j.from, -j.amt); err != nil {
		return err
	}
	if _, err := st.IncrTx(tx, now, j.to, j.amt); err != nil {
		return err
	}
	if _, err := st.HIncrTx(tx, now, jobsStats, j.field, 1); err != nil {
		return err
	}
	switch j.verb {
	case verbSubmit:
		_, err := st.RPushTx(tx, now, jobsPending, j.id)
		return err
	case verbPromote:
		_, ok, err := st.LPopTx(tx, now, jobsPending)
		if err != nil {
			return err
		}
		if !ok {
			return errPendingEmpty
		}
		_, err = st.ZAddTx(tx, now, jobsActive, j.member, j.score)
		return err
	default: // verbComplete
		n, err := st.ZRemTx(tx, now, jobsActive, j.member)
		if err != nil {
			return err
		}
		if n != 1 {
			return errNotActive
		}
		return nil
	}
}

// engineWorker is one goroutine's closed loop over its jobs.
type engineWorker struct {
	jobs []job
	ops  atomic.Int64
	tally
	lat      []int64
	nlat     int
	firstErr error
}

func (w *engineWorker) run(st *kv.Store, ctl *control) {
	for i := 0; !ctl.stop.Load(); i = (i + 1) % len(w.jobs) {
		j := &w.jobs[i]
		t0 := nanotime()
		err := st.Atomically(func(tx *stm.Tx, now int64) error { return applyJob(st, tx, now, j) })
		t1 := nanotime()
		w.attempted++
		if err != nil {
			w.failed++
			if w.firstErr == nil {
				w.firstErr = err
			}
		}
		if w.nlat < len(w.lat) && ctl.recording.Load() {
			w.lat[w.nlat] = t1 - t0
			w.nlat++
		}
		w.ops.Add(1)
	}
}

// enginePhase is a set of engine workers running against one store.
type enginePhase struct {
	phase
	workers []*engineWorker
}

// startEngine starts one worker per stream, each with room for the
// latency samples of a measured phase of d.
func startEngine(st *kv.Store, streams []*stream, d time.Duration) *enginePhase {
	ep := &enginePhase{}
	samples := min(int(d.Seconds()*1_000_000)+1024, 8<<20)
	for _, s := range streams {
		w := &engineWorker{jobs: s.jobs, lat: make([]int64, samples)}
		ep.workers = append(ep.workers, w)
		ep.counters = append(ep.counters, &w.ops)
		ep.wg.Add(1)
		go func() {
			defer ep.wg.Done()
			w.run(st, &ep.ctl)
		}()
	}
	return ep
}

func (ep *enginePhase) finish(rep *report) (lat []int64) {
	ep.halt()
	for i, w := range ep.workers {
		rep.count(w.tally)
		lat = append(lat, w.lat[:w.nlat]...)
		if w.firstErr != nil {
			rep.problemf("worker %d: %v", i, w.firstErr)
		}
	}
	return lat
}

// engineStreams draws every worker's jobs.
func engineStreams(cfg config, sp spec) []*stream {
	streams := make([]*stream, cfg.nconn)
	for w := range streams {
		units := cfg.streamUnits
		if units <= 0 {
			units = sp.unitsPerConn
		}
		streams[w] = &stream{jobs: genJobs(newRNG(cfg.seed, sp.name, w), w, cfg.nconn, units)}
	}
	return streams
}

func runEngine(cfg config, sp spec, rep *report) error {
	streams := engineStreams(cfg, sp)
	var scores []score
	for i := 0; i < cfg.instances; i++ {
		sc, err := engineInstance(cfg, sp, streams, rep)
		if err != nil {
			return fmt.Errorf("instance %d: %w", i+1, err)
		}
		scores = append(scores, sc)
	}
	rep.setScores(scores)
	// This workload's set-up is tens of milliseconds, short enough for
	// one collector cycle to double it; a few more set-ups cost little
	// and steady the median.
	setups := make([]float64, 0, len(scores)+extraEngineSetups)
	for _, sc := range scores {
		setups = append(setups, sc.setupS)
	}
	for i := 0; i < extraEngineSetups; i++ {
		debug.FreeOSMemory() // the same clean heap the instances' set-ups saw
		_, setupS, err := engineSetup(sp, cfg.seed)
		if err != nil {
			return err
		}
		setups = append(setups, setupS)
	}
	rep.set("setup_s", median(setups))
	return nil
}

const extraEngineSetups = 6

// engineSetup is this workload's set-up: build the store, preload it.
func engineSetup(sp spec, seed uint64) (st *kv.Store, seconds float64, err error) {
	t0 := time.Now()
	if st, err = newStore(); err != nil {
		return nil, 0, err
	}
	if _, err = preload(storeLoader{st}, sp, seed); err != nil {
		return nil, 0, err
	}
	return st, time.Since(t0).Seconds(), nil
}

// engineInstance builds one store, measures the loop on it and audits
// it. The process is shared, so CPU time is a delta of the benchmark's
// own and peak memory is the process's so far.
func engineInstance(cfg config, sp spec, streams []*stream, rep *report) (score, error) {
	var sc score
	// Every instance starts from the same memory state: the previous
	// store collected and returned to the OS, the collector's pacing
	// reset with it, and the kernel's peak-RSS mark lowered to now.
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return sc, fmt.Errorf("reset peak RSS: %w", err)
	}
	st, setupS, err := engineSetup(sp, cfg.seed)
	if err != nil {
		return sc, err
	}
	sc.setupS = setupS

	ep := startEngine(st, streams, cfg.share(cfg.measured()))
	time.Sleep(cfg.share(cfg.warmup))
	cpu0, err := selfCPU()
	if err != nil {
		return sc, err
	}
	before := st.STM().TotalStats()
	win := ep.measure(cfg.share(cfg.measured()))
	after := st.STM().TotalStats()
	cpu1, err := selfCPU()
	if err != nil {
		return sc, err
	}
	lat := summarize(ep.finish(rep))
	checkJobs(st, rep)
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return sc, err
	}
	sc.throughput = win.rate()
	sc.p50, sc.hi = lat.p50, lat.hi
	sc.cpuPerOp = float64((cpu1 - cpu0).Microseconds()) / float64(max(win.ops, 1))
	sc.rssMB = float64(procField(status, "VmHWM:")) / 1024
	aborts, commits := after.Aborts-before.Aborts, after.Commits-before.Commits
	fmt.Printf("info instance: set-up %.3fs; windows %s tx/s (spread %.3f); latency per transaction n=%d p50=%.2fus p%g=%.2fus max=%.1fus; cpu %.2fus/op; peak rss %.1fMB; abort ratio %.4f\n",
		sc.setupS, fmtRates(win.rates), spread(win.rates), lat.n, lat.p50, lat.hiQ*100, lat.hi, lat.maxMicro, sc.cpuPerOp, sc.rssMB,
		ratio(float64(aborts), float64(aborts+commits)))
	return sc, nil
}

// checkJobs audits the pipeline in one consistent transaction: every
// submitted job is pending, active or done; every promoted one is
// active or done; the accounts still sum to what preload gave them.
// Then the store's own structural invariants.
func checkJobs(st *kv.Store, rep *report) {
	err := st.Atomically(func(tx *stm.Tx, now int64) error {
		pending, err := st.LLenTx(tx, now, jobsPending)
		if err != nil {
			return err
		}
		active, err := st.ZCardTx(tx, now, jobsActive)
		if err != nil {
			return err
		}
		fields, err := st.HGetAllTx(tx, now, jobsStats)
		if err != nil {
			return err
		}
		stat := make(map[string]int64, len(fields))
		for _, f := range fields {
			if stat[f.K], err = strconv.ParseInt(f.V, 10, 64); err != nil {
				return fmt.Errorf("stats field %s=%q: %w", f.K, f.V, err)
			}
		}
		submitted := stat["submitted:0"] + stat["submitted:1"]
		if got := int64(pending+active) + stat["done"]; got != submitted {
			return fmt.Errorf("job conservation broken: pending %d + active %d + done %d = %d, submitted %d",
				pending, active, stat["done"], got, submitted)
		}
		if got := int64(active) + stat["done"]; got != stat["promoted"] {
			return fmt.Errorf("job conservation broken: active %d + done %d != promoted %d", active, stat["done"], stat["promoted"])
		}
		var sum int64
		for i := 0; i < accounts; i++ {
			v, _, err := st.GetTx(tx, now, accountKey(i))
			if err != nil {
				return err
			}
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return fmt.Errorf("account %d holds %q: %w", i, v, err)
			}
			sum += n
		}
		if want := int64(accounts * accountStart); sum != want {
			return fmt.Errorf("account conservation broken: sum %d, want %d", sum, want)
		}
		return nil
	})
	if err != nil {
		rep.problemf("%v", err)
	}
	if err := st.CheckInvariants(); err != nil {
		rep.problemf("store invariants: %v", err)
	}
}
