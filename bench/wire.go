package main

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/resp"
)

// This file is the timed run of the three wire workloads: set-up,
// warm-up, the measured closed loop scored by windows, and the checks
// that decide whether the numbers may be reported at all.

// config is one invocation of the benchmark.
type config struct {
	workload string
	seed     uint64
	seconds  float64 // the measured phase
	trace    bool
	root     string // the checkout: where ./cmd/stmkv is built from
	outDir   string // traces and data directories go here and nowhere else
	// serverBin is a prebuilt stmkv; empty builds one into outDir.
	serverBin string

	// The rest are fixed in production (see defaults) and shrunk by the
	// package's tests.
	instances   int           // instances measured per run; every metric is their median
	warmup      time.Duration // unmeasured closed loop before the windows, all instances together
	streamUnits int           // request units materialised per connection (0: the spec's)
	traceUnits  int           // request units of traced part A (0: the spec's)
	ladderOps   int           // operations fed through each ladder rung
	nconn       int           // connections, or engine goroutines: nproc
}

const measureWindowsN = 5

// wireServer is a child server with its load connections open.
type wireServer struct {
	*child
	conns []*loadConn
	pop   population
	dir   string // data directory, durable only
}

// serverFlags are the flags beyond -addr: none for the memory-only
// workloads, so the server runs with its defaults (greedy, 16 shards,
// 500µs group-commit window).
func serverFlags(cfg config, sp spec, dir string) []string {
	if !sp.durable {
		return nil
	}
	// The issue's snapshot cadence, 5 s in a 25 s window, scaled with
	// the window: about five background snapshot cycles per run.
	every := time.Duration(cfg.seconds / measureWindowsN * float64(time.Second)).Round(10 * time.Millisecond)
	return []string{"-data", dir, "-bgsave-every", every.String()}
}

// setupServer is the set-up a user pays before the first request: start
// the server, connect, preload. extra flags are for the traced pass.
func setupServer(cfg config, sp spec, nconn int, extra ...string) (*wireServer, error) {
	ws := &wireServer{}
	if sp.durable {
		dir, err := os.MkdirTemp(cfg.outDir, "data-")
		if err != nil {
			return nil, err
		}
		ws.dir = dir
	}
	c, err := startServer(cfg.serverBin, append(serverFlags(cfg, sp, ws.dir), extra...)...)
	if err != nil {
		ws.removeData()
		return nil, err
	}
	ws.child = c
	for i := 0; i < nconn; i++ {
		lc, err := dialLoad(c.addr)
		if err != nil {
			ws.teardown()
			return nil, err
		}
		ws.conns = append(ws.conns, lc)
	}
	ws.pop, err = preload(&wireLoader{lc: ws.conns[0]}, sp, cfg.seed)
	if err != nil {
		ws.teardown()
		return nil, fmt.Errorf("%w\nserver log:\n%s", err, c.log())
	}
	return ws, nil
}

func (ws *wireServer) removeData() {
	if ws.dir != "" {
		os.RemoveAll(ws.dir)
	}
}

// teardown stops the server and removes its data directory.
func (ws *wireServer) teardown() {
	for _, lc := range ws.conns {
		lc.c.Close()
	}
	ws.kill()
	ws.removeData()
}

// score is what one instance of the system under test measured. A run
// measures several instances — each a fresh process (or store) with its
// own hash seeds, set up, warmed and measured for its share of
// --seconds — and reports the median instance: where a hot key happens
// to hash decides how often a shard recounts itself, so one server's
// luck is not the commit's speed.
type score struct {
	setupS, throughput, p50, cpuPerOp, rssMB float64
	// hi is the high-percentile latency: printed, not gated (README.md,
	// "Why p99 is not an end-to-end metric").
	hi float64
}

// setScores reports the median instance, metric by metric.
func (r *report) setScores(scores []score) {
	col := func(f func(score) float64) float64 {
		xs := make([]float64, len(scores))
		for i, sc := range scores {
			xs[i] = f(sc)
		}
		return median(xs)
	}
	r.set("setup_s", col(func(s score) float64 { return s.setupS }))
	r.set("throughput_ops_s", col(func(s score) float64 { return s.throughput }))
	r.set("lat_p50_us", col(func(s score) float64 { return s.p50 }))
	r.set("cpu_us_per_op", col(func(s score) float64 { return s.cpuPerOp }))
	r.set("rss_peak_mb", col(func(s score) float64 { return s.rssMB }))
	fmt.Printf("info median instance: high-percentile latency %.1fus\n", col(func(s score) float64 { return s.hi }))
}

// share is one instance's part of a duration.
func (cfg config) share(d time.Duration) time.Duration { return d / time.Duration(cfg.instances) }

func (cfg config) measured() time.Duration { return time.Duration(cfg.seconds * float64(time.Second)) }

// loadPhase runs closed-loop workers over conns.
type loadPhase struct {
	phase
	workers []*closedWorker
	errs    []error
}

func opsPerUnit(sp spec) func(unit) int64 {
	if sp.perCommand {
		return func(u unit) int64 { return int64(u.c1 - u.c0) }
	}
	return func(unit) int64 { return 1 }
}

// newWorkers makes one closed-loop worker per connection.
func newWorkers(sp spec, conns []*loadConn, streams []*stream, d time.Duration, split bool) []*closedWorker {
	// Room for every request unit of the measured phase at several times
	// today's rate; a faster server than that stops adding samples, it
	// does not reallocate inside the timed loop.
	samples := min(int(d.Seconds()*150_000)+1024, 8<<20)
	workers := make([]*closedWorker, len(conns))
	for i, lc := range conns {
		workers[i] = &closedWorker{lc: lc, st: streams[i], opsPerUnit: opsPerUnit(sp), lat: make([]int64, samples), split: split}
	}
	return workers
}

func startLoad(workers []*closedWorker) *loadPhase {
	lp := &loadPhase{workers: workers, errs: make([]error, len(workers))}
	for i, w := range workers {
		lp.counters = append(lp.counters, &w.ops)
		lp.wg.Add(1)
		go func() {
			defer lp.wg.Done()
			lp.errs[i] = w.run(&lp.ctl)
		}()
	}
	return lp
}

// finish stops the workers and folds their tallies into rep.
func (lp *loadPhase) finish(rep *report) (lat []int64) {
	lp.halt()
	for i, w := range lp.workers {
		rep.count(w.tally)
		lat = append(lat, w.lat[:w.nlat]...)
		if lp.errs[i] != nil {
			rep.problemf("connection %d: %v", i, lp.errs[i])
		}
	}
	return lat
}

func runWire(cfg config, sp spec, rep *report) error {
	streams := make([]*stream, cfg.nconn)
	for c := range streams {
		streams[c] = genStream(sp, cfg.seed, c, cfg.nconn, cfg.streamUnits)
	}
	var scores []score
	for i := 0; i < cfg.instances; i++ {
		sc, err := wireInstance(cfg, sp, streams, rep, i == cfg.instances-1)
		if err != nil {
			return fmt.Errorf("instance %d: %w", i+1, err)
		}
		scores = append(scores, sc)
	}
	rep.setScores(scores)
	return nil
}

// wireInstance sets up one server, measures it and checks it. Only the
// last instance of a durable run is crashed and audited: the audit
// reads every key back, and one kill -9 per run is the check.
func wireInstance(cfg config, sp spec, streams []*stream, rep *report, last bool) (score, error) {
	var sc score
	t0 := time.Now()
	ws, err := setupServer(cfg, sp, cfg.nconn)
	if err != nil {
		return sc, err
	}
	defer ws.teardown()
	sc.setupS = time.Since(t0).Seconds()

	lp := startLoad(newWorkers(sp, ws.conns, streams, cfg.share(cfg.measured()), false))
	if sp.name == wlDepth1 {
		// The typed round-trips run beside the warm-up traffic: private
		// keys, but the same shards and the same commit protocol.
		if err := roundTrips(ws.addr, cfg.nconn, rep); err != nil {
			rep.problemf("round-trips: %v", err)
		}
	}
	time.Sleep(cfg.share(cfg.warmup))
	before, err := readProc(ws.pid())
	if err != nil {
		return sc, err
	}
	win := lp.measure(cfg.share(cfg.measured()))
	after, err := readProc(ws.pid())
	if err != nil {
		return sc, err
	}
	crash := sp.durable && last
	if crash {
		// Kill while requests are in flight: that is the case the
		// journal check is about.
		lp.ctl.dying.Store(true)
		ws.kill()
	}
	lat := summarize(lp.finish(rep))
	sc.throughput = win.rate()
	sc.p50, sc.hi = lat.p50, lat.hi
	sc.cpuPerOp = float64((after.cpu - before.cpu).Microseconds()) / float64(max(win.ops, 1))
	sc.rssMB = float64(after.hwmKB) / 1024
	fmt.Printf("info instance: set-up %.3fs; windows %s ops/s (spread %.3f); latency per request unit n=%d p50=%.1fus p%g=%.1fus max=%.1fus; cpu %.2fus/op; peak rss %.1fMB\n",
		sc.setupS, fmtRates(win.rates), spread(win.rates), lat.n, lat.p50, lat.hiQ*100, lat.hi, lat.maxMicro, sc.cpuPerOp, sc.rssMB)

	switch {
	case crash:
		rec, err := recoverAndCheck(cfg, sp, ws, lp.workers, streams, rep)
		if err != nil {
			return sc, err
		}
		fmt.Printf("info recovery: %.1f ms to PING, %d ops replayed, %.3f us/op (kill -9 keeps the OS page cache: this checks the log protocol, not the device)\n",
			rec.toPing.Seconds()*1e3, rec.ops, rec.usPerOp())
	case sp.name == wlDepth1:
		err = checkAccounts(ws.addr, rep)
	case sp.name == wlPipelined:
		// No command of this workload creates or deletes a key.
		err = checkKeyCount(ws.addr, ws.pop.keys, rep)
	}
	return sc, err
}

func fmtRates(rates []float64) string {
	s := make([]string, len(rates))
	for i, r := range rates {
		s[i] = strconv.FormatFloat(r, 'f', 0, 64)
	}
	return strings.Join(s, " ")
}

// checkAccounts verifies conservation: transfers move money between
// the accounts, so their sum is what preload put there.
func checkAccounts(addr string, rep *report) error {
	a, err := dialAdmin(addr)
	if err != nil {
		return err
	}
	defer a.Close()
	args := []string{"MGET"}
	for i := 0; i < accounts; i++ {
		args = append(args, accountKey(i))
	}
	v, err := a.do(args...)
	if err != nil {
		return err
	}
	var sum int64
	for _, e := range v.Elems {
		n, err := strconv.ParseInt(e.Str, 10, 64)
		if err != nil {
			rep.problemf("account holds %q", e.Str)
		}
		sum += n
	}
	if want := int64(accounts * accountStart); sum != want {
		rep.problemf("conservation broken: accounts sum to %d, want %d", sum, want)
	}
	return nil
}

func checkKeyCount(addr string, want int, rep *report) error {
	a, err := dialAdmin(addr)
	if err != nil {
		return err
	}
	defer a.Close()
	v, err := a.do("DBSIZE")
	if err != nil {
		return err
	}
	if v.Int != int64(want) {
		rep.problemf("keyspace holds %d keys, want %d", v.Int, want)
	}
	return nil
}

// roundTrips drives one private list and one private sorted set per
// connection: what goes in must come out, in order, with its score.
func roundTrips(addr string, nconn int, rep *report) error {
	const n = 48
	errs := make([]error, nconn)
	reps := make([]*report, nconn)
	var wg sync.WaitGroup
	for c := 0; c < nconn; c++ {
		reps[c] = newReport()
		wg.Add(1)
		go func() {
			defer wg.Done()
			a, err := dialAdmin(addr)
			if err != nil {
				errs[c] = err
				return
			}
			defer a.Close()
			errs[c] = roundTrip(a, "probe:"+strconv.Itoa(c), n, reps[c])
		}()
	}
	wg.Wait()
	for _, r := range reps {
		rep.count(tally{r.attempted, r.failed})
		rep.problems = append(rep.problems, r.problems...)
	}
	return errors.Join(errs...)
}

func roundTrip(a *adminConn, prefix string, n int, rep *report) error {
	list, zset := prefix+":list", prefix+":zset"
	expect := func(what string, got resp.Value, want string) {
		rep.attempted++
		s := got.Str
		if got.Kind == ':' {
			s = strconv.FormatInt(got.Int, 10)
		}
		if s != want || got.Null {
			rep.failed++
			rep.problemf("%s: got %q, want %q", what, s, want)
		}
	}
	for i := 0; i < n; i++ {
		v, err := a.do("RPUSH", list, "item"+strconv.Itoa(i))
		if err != nil {
			return err
		}
		expect("RPUSH length", v, strconv.Itoa(i+1))
		if v, err = a.do("ZADD", zset, strconv.FormatFloat(float64(i)*1.5, 'g', -1, 64), "m"+strconv.Itoa(i)); err != nil {
			return err
		}
		expect("ZADD added", v, "1")
	}
	for i := 0; i < n; i++ {
		v, err := a.do("LPOP", list)
		if err != nil {
			return err
		}
		expect("FIFO order", v, "item"+strconv.Itoa(i))
		if v, err = a.do("ZSCORE", zset, "m"+strconv.Itoa(i)); err != nil {
			return err
		}
		expect("ZSCORE", v, strconv.FormatFloat(float64(i)*1.5, 'g', -1, 64))
	}
	v, err := a.do("ZRANGE", zset, "0", "-1")
	if err != nil {
		return err
	}
	rep.attempted++
	for i, e := range v.Elems {
		if e.Str != "m"+strconv.Itoa(i) {
			rep.failed++
			rep.problemf("ZRANGE position %d holds %q", i, e.Str)
			break
		}
	}
	if len(v.Elems) != n {
		rep.problemf("ZRANGE returned %d members, want %d", len(v.Elems), n)
	}
	_, err = a.do("DEL", list, zset)
	return err
}
