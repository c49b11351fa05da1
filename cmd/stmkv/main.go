// Command stmkv serves the transactional key-value store over a
// RESP-lite protocol (see README.md for usage and the wire surface),
// and doubles as its own closed-loop load generator and CI smoke
// harness.
//
// Modes:
//
//	stmkv                          # serve on -addr (default :6399)
//	stmkv -data DIR                # serve durably: recover, then log + snapshot
//	stmkv -loadgen -addr HOST:PORT # drive an already-running server
//	stmkv -audit check ...         # one-shot invariant probe of a live server
//	stmkv -smoke                   # in-process server + loadgen + invariants
//
// The server runs one goroutine per connection; every command borrows
// a pooled STM session, so concurrent clients commit in parallel under
// the striped commit protocol, arbitrated by the contention manager
// named with -manager. With -data, committed write sets are
// group-committed to a write-ahead log and SAVE/BGSAVE cut snapshots
// that truncate it (DESIGN.md §Durability). Serving and -smoke start
// the server the same way (start); the store's shape (16 shards of 8
// initial buckets) and the load generator's workload (see loadgen.go)
// are fixed, so every run exercises the same program.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/kv"
	"repro/internal/obs"
	"repro/internal/stm"
	"repro/internal/wal"
)

func main() {
	var (
		addr    = flag.String("addr", ":6399", "listen address (serve) or target address (-loadgen/-audit)")
		manager = flag.String("manager", "greedy", "contention manager registry name (see stmbench -list)")

		metrics = flag.String("metrics", "", "observability HTTP listener serving /metrics, /healthz and /debug/pprof (empty disables)")
		txtrace = flag.Int("txtrace", 0, "transaction flight recorder: sample 1 in N transactions into ABORTLOG and /debug/stm/conflicts (0 disables)")
		data    = flag.String("data", "", "durability directory: recover on boot, then write-ahead log every commit (empty = memory only)")
		sweep   = flag.Duration("sweep", 500*time.Millisecond, "background TTL sweep cadence for a full pass over all shards; shards holding no TTL are skipped (0 disables)")
		bgsave  = flag.String("bgsave-every", "", "scheduled BGSAVE cadence: a duration (\"30s\") or a logged-record count (\"500ops\"); empty disables (durable mode only)")

		loadgen = flag.Bool("loadgen", false, "run the closed-loop load generator against -addr instead of serving")
		smoke   = flag.Bool("smoke", false, "start an in-process server on an ephemeral port, run the load generator against it, verify invariants, shut down")
		clients = flag.Int("clients", 8, "load generator: concurrent connections")
		ops     = flag.Int("ops", 2000, "load generator: operations per connection")
		binKeys = flag.Bool("binkeys", false, "load generator: use a binary-hostile key table (NULs, CRLFs, high bytes)")
		typed   = flag.Bool("typed", false, "load generator: mix in typed-container traffic (hash-ledger transfers, FIFO lists, zset round-trips)")

		audit = flag.String("audit", "", "audit a live server at -addr: sum (conservation), set (plant TTL probes too), check (verify probes too)")
		save  = flag.Bool("save", false, "audit: issue SAVE before exiting")
	)
	flag.Parse()
	modes := 0
	for _, on := range []bool{*loadgen, *smoke, *audit != ""} {
		if on {
			modes++
		}
	}
	if modes > 1 {
		fmt.Fprintln(os.Stderr, "stmkv: -loadgen, -smoke and -audit are mutually exclusive")
		os.Exit(2)
	}
	lcfg := loadConfig{clients: *clients, ops: *ops, binKeys: *binKeys, typed: *typed}
	scfg := serverConfig{
		addr:    *addr,
		metrics: *metrics,
		manager: *manager,
		data:    *data,
		sweep:   *sweep,
		bgsave:  *bgsave,
		txtrace: *txtrace,
	}
	switch {
	case *loadgen:
		report, err := runLoadgen(*addr, lcfg)
		if err != nil {
			fatal(err)
		}
		fmt.Println(report)
	case *audit != "":
		if err := runAudit(*addr, *audit, *save); err != nil {
			fatal(err)
		}
	case *smoke:
		if err := runSmoke(scfg, lcfg); err != nil {
			fatal(err)
		}
	default:
		if err := serve(scfg); err != nil {
			fatal(err)
		}
	}
}

// serverConfig is what the serving flags set: where to listen, which
// contention manager arbitrates, and the optional durability, sweep,
// snapshot, metrics and flight-recorder settings.
type serverConfig struct {
	addr, metrics string
	manager       string
	data          string
	sweep         time.Duration
	bgsave        string
	txtrace       int
}

// traceState bundles the flight-recorder sinks when -txtrace is on:
// the conflict matrix served at /debug/stm/conflicts and the ABORTLOG
// ring served over RESP. Nil when tracing is disabled.
type traceState struct {
	conflicts *obs.Conflicts
	abortlog  *kv.AbortLog
}

// serverOpts returns the server options that hand the sinks to kv.
func (tr *traceState) serverOpts() []kv.ServerOption {
	if tr == nil {
		return nil
	}
	return []kv.ServerOption{kv.WithAbortLog(tr.abortlog)}
}

// muxOpts returns the obs.Mux options that mount the HTTP endpoints.
func (tr *traceState) muxOpts() []obs.MuxOption {
	if tr == nil {
		return nil
	}
	return []obs.MuxOption{obs.WithConflicts(tr.conflicts)}
}

// openStore builds the store, and in durable mode replays the data
// directory into it before attaching a fresh log segment. The returned
// log is nil in memory-only mode; the caller owns closing it after the
// server quiesces. txtrace > 0 installs the transaction flight
// recorder, sampling 1 in txtrace transactions into the returned
// traceState (nil when disabled).
func openStore(manager, data string, txtrace int) (*kv.Store, *wal.Log, *traceState, error) {
	factory, err := core.Factory(manager)
	if err != nil {
		return nil, nil, nil, err
	}
	stmOpts := []stm.Option{stm.WithManagerFactory(factory)}
	var tr *traceState
	if txtrace > 0 {
		tr = &traceState{
			conflicts: obs.NewConflicts(manager),
			abortlog:  kv.NewAbortLog(128),
		}
		stmOpts = append(stmOpts, stm.WithTracer(stm.Tee(tr.conflicts, tr.abortlog), txtrace))
	}
	s := stm.New(stmOpts...)
	var opts []kv.Option
	if data != "" {
		// Anchor the store clock to the unix epoch so the absolute TTL
		// deadlines in the log mean the same thing after a restart.
		opts = append(opts, kv.WithClock(func() int64 { return time.Now().UnixNano() }))
	}
	store := kv.New(s, opts...)
	if data == "" {
		return store, nil, tr, nil
	}
	rst, err := wal.Recover(data, store.Apply)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("recover %s: %w", data, err)
	}
	fmt.Fprintf(os.Stderr,
		"stmkv: recovered %s — snapshot %d ops (base %d, skip %d), %d segments, %d records (%d ops), torn tail %d bytes\n",
		data, rst.SnapshotOps, rst.Base, rst.Skipped, rst.Segments, rst.Records, rst.Ops, rst.TruncatedBytes)
	l, err := wal.Open(data, wal.Options{})
	if err != nil {
		return nil, nil, nil, err
	}
	store.AttachWAL(l)
	return store, l, tr, nil
}

// saveSchedule turns -bgsave-every into the server's snapshot schedule:
// a duration ("30s") is a wall-clock cadence, a record count ("500ops")
// a snapshot once at least that many new records reached the log since
// the last. Empty runs no schedule.
func saveSchedule(spec, data string) (kv.ServerOption, error) {
	if spec == "" {
		return kv.WithSaveSchedule(0, 0), nil
	}
	if data == "" {
		return nil, fmt.Errorf("-bgsave-every requires -data")
	}
	if n, ok := strings.CutSuffix(spec, "ops"); ok {
		records, err := strconv.ParseInt(strings.TrimSpace(n), 10, 64)
		if err != nil || records <= 0 {
			return nil, fmt.Errorf("-bgsave-every %q: want a positive count before \"ops\"", spec)
		}
		return kv.WithSaveSchedule(0, records), nil
	}
	every, err := time.ParseDuration(spec)
	if err != nil || every <= 0 {
		return nil, fmt.Errorf("-bgsave-every %q: want a positive duration or \"<n>ops\"", spec)
	}
	return kv.WithSaveSchedule(every, 0), nil
}

// startMetrics serves the observability endpoints — Prometheus
// /metrics, liveness /healthz, /debug/pprof — from the server's
// registry on its own listener, so scraping and profiling never
// contend with the RESP accept loop. Health turns red when the WAL
// has latched a sticky error: the process answers but is no longer
// durable, which a probe should treat as down. Empty addr disables;
// the resolved address (useful with ":0") and a stop func are
// returned.
func startMetrics(addr string, srv *kv.Server, store *kv.Store, tr *traceState) (string, func(), error) {
	if addr == "" {
		return "", func() {}, nil
	}
	health := func() error {
		if store.Durable() {
			return store.WAL().Err()
		}
		return nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("metrics listener: %w", err)
	}
	hs := &http.Server{Handler: obs.Mux(srv.Registry(), health, tr.muxOpts()...)}
	go hs.Serve(ln)
	return ln.Addr().String(), func() { hs.Close() }, nil
}

// instance is a started server and what runs around it.
type instance struct {
	store       *kv.Store
	log         *wal.Log // nil in memory-only mode
	srv         *kv.Server
	ln          net.Listener
	metricsAddr string     // "" when the metrics listener is off
	done        chan error // receives Serve's result
	stopMetrics func()
}

// start is the one start-up sequence both serving and -smoke run: open
// (and in durable mode recover) the store, build the server, start the
// metrics listener and the socket listener, print the boot line, and
// serve in the background — which starts the sweeper and the snapshot
// schedule. A failed start leaves the metrics listener running; the
// caller exits.
func start(cfg serverConfig) (*instance, error) {
	save, err := saveSchedule(cfg.bgsave, cfg.data)
	if err != nil {
		return nil, err
	}
	store, l, tr, err := openStore(cfg.manager, cfg.data, cfg.txtrace)
	if err != nil {
		return nil, err
	}
	opts := append([]kv.ServerOption{kv.WithManagerName(cfg.manager), kv.WithSweep(cfg.sweep), save}, tr.serverOpts()...)
	srv := kv.NewServer(store, opts...)
	maddr, stopMetrics, err := startMetrics(cfg.metrics, srv, store, tr)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "stmkv: serving on %s (manager=%s shards=%d durable=%v bgsave=%q metrics=%q)\n",
		ln.Addr(), cfg.manager, store.Shards(), store.Durable(), cfg.bgsave, maddr)
	inst := &instance{
		store:       store,
		log:         l,
		srv:         srv,
		ln:          ln,
		metricsAddr: maddr,
		done:        make(chan error, 1),
		stopMetrics: stopMetrics,
	}
	go func() { inst.done <- srv.Serve(ln) }()
	return inst, nil
}

// serve runs the server until SIGINT/SIGTERM, then shuts down cleanly:
// listener, connections, sweeper and snapshot schedule first, then the
// metrics listener, then the log.
func serve(cfg serverConfig) error {
	inst, err := start(cfg)
	if err != nil {
		return err
	}
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "stmkv: %v, shutting down\n", sig)
		if err = inst.srv.Close(); err == nil {
			err = <-inst.done
		}
	case err = <-inst.done:
		// Serve failed; Close still stops the sweeper and the snapshot
		// schedule before the log closes under them.
		inst.srv.Close()
	}
	inst.stopMetrics()
	if inst.log != nil {
		if cerr := inst.log.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("wal close: %w", cerr)
		}
	}
	return err
}

// runSmoke is the CI path: a real server on an ephemeral port, the
// load generator driving it over real sockets, then invariant checks
// and a clean shutdown. With -data it additionally gates the log's
// counters (consistent, and at rest everything appended is durable) and
// proves the restore path: the directory is recovered — without
// closing the log, as a crash would leave it — into a fresh store
// that must match the pre-shutdown state exactly. Any violation exits
// non-zero through main.
func runSmoke(cfg serverConfig, lcfg loadConfig) error {
	// The smoke gates the metrics listener and the flight recorder end
	// to end, so both are always on here, on ephemeral ports; a dense
	// sampling period makes the loadgen storm fill the recorder.
	cfg.addr, cfg.metrics = "127.0.0.1:0", "127.0.0.1:0"
	if cfg.txtrace <= 0 {
		cfg.txtrace = 4
	}
	inst, err := start(cfg)
	if err != nil {
		return err
	}
	defer inst.stopMetrics()
	store, l, srv, ln := inst.store, inst.log, inst.srv, inst.ln

	report, err := runLoadgen(ln.Addr().String(), lcfg)
	if err != nil {
		return fmt.Errorf("smoke: loadgen: %w", err)
	}
	fmt.Println(report)

	// The observability surface is a smoke gate too: the exposition
	// must parse back, the storm must be visible in the command
	// counters, and health and pprof must answer.
	if err := smokeMetrics("http://" + inst.metricsAddr); err != nil {
		return fmt.Errorf("smoke: %w", err)
	}

	// And so is the flight recorder: the conflict matrix must serve
	// parseable JSON that saw the storm, and ABORTLOG must answer over
	// RESP.
	if err := smokeTrace("http://"+inst.metricsAddr, ln.Addr().String()); err != nil {
		return fmt.Errorf("smoke: %w", err)
	}

	// The store must be structurally sound after the storm, and the
	// expiry backstop must run clean.
	if err := store.CheckInvariants(); err != nil {
		return fmt.Errorf("smoke: %w", err)
	}
	reaped, err := store.Sweep()
	if err != nil {
		return fmt.Errorf("smoke: sweep: %w", err)
	}
	n := store.PeekLen()
	stats := store.STM().TotalStats()
	fmt.Printf("smoke: ok — %d live keys, %d reaped, shard buckets %v, %d commits (abort rate %.2f)\n",
		n, reaped, store.BucketsPerShard(), stats.Commits, stats.AbortRate())

	// Close quiesces every background writer as well as the clients: a
	// scheduled BGSAVE rotating and reaping segments — or a sweeper pass
	// appending tombstones — while Recover scans the directory would
	// hand the comparison below a torn view of the log.
	if err := srv.Close(); err != nil {
		return fmt.Errorf("smoke: close: %w", err)
	}
	if err := <-inst.done; err != nil {
		return fmt.Errorf("smoke: serve returned: %w", err)
	}
	// A second Close must be a no-op, and the port must be free again.
	if err := srv.Close(); err != nil {
		return fmt.Errorf("smoke: double close: %w", err)
	}
	probe, err := net.Listen("tcp", ln.Addr().String())
	if err != nil {
		return fmt.Errorf("smoke: port not released: %w", err)
	}
	probe.Close()
	if l != nil {
		if err := smokeDurability(store, l, lcfg); err != nil {
			return err
		}
		if err := l.Close(); err != nil {
			return fmt.Errorf("smoke: wal close: %w", err)
		}
	}
	return nil
}

// smokeMetrics gates the observability surface under -smoke: /metrics
// must serve a well-formed exposition that records the loadgen storm
// (nonzero stmkv_commands_total across commands), /healthz must be
// green, and pprof must be reachable. Runs against the in-process
// metrics listener over a real HTTP round trip, same as a scraper.
func smokeMetrics(base string) error {
	get := func(path string) ([]byte, error) {
		resp, err := http.Get(base + path)
		if err != nil {
			return nil, fmt.Errorf("metrics: GET %s: %w", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, fmt.Errorf("metrics: read %s: %w", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("metrics: GET %s: status %d (%s)", path, resp.StatusCode, body)
		}
		return body, nil
	}
	body, err := get("/metrics")
	if err != nil {
		return err
	}
	samples, err := obs.CheckExposition(body)
	if err != nil {
		return fmt.Errorf("metrics: exposition malformed: %w", err)
	}
	var commands float64
	for name, v := range samples {
		if strings.HasPrefix(name, "stmkv_commands_total{") {
			commands += v
		}
	}
	if commands == 0 {
		return fmt.Errorf("metrics: stmkv_commands_total is zero after the loadgen storm")
	}
	if _, err := get("/healthz"); err != nil {
		return err
	}
	if _, err := get("/debug/pprof/cmdline"); err != nil {
		return err
	}
	fmt.Printf("smoke: metrics ok — %d samples parsed back, %.0f commands counted, healthz and pprof answering\n",
		len(samples), commands)
	return nil
}

// smokeTrace gates the transaction flight recorder end to end: the
// conflict matrix at /debug/stm/conflicts must parse as JSON and have
// sampled the loadgen storm (the smoke always arms -txtrace), the text
// form must answer, and ABORTLOG must answer LEN with an integer and
// GET with a well-formed array over RESP.
func smokeTrace(base, addr string) error {
	resp, err := http.Get(base + "/debug/stm/conflicts")
	if err != nil {
		return fmt.Errorf("trace: GET conflicts: %w", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return fmt.Errorf("trace: GET conflicts: status %d (%v)", resp.StatusCode, err)
	}
	var snap struct {
		Manager    string           `json:"manager"`
		SampledTxs int64            `json:"sampled_txs"`
		Causes     map[string]int64 `json:"abort_causes"`
		HotObjects []struct {
			Obj   string `json:"obj"`
			Opens int64  `json:"opens"`
		} `json:"hot_objects"`
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		return fmt.Errorf("trace: conflicts not parseable JSON: %w", err)
	}
	if snap.Manager == "" {
		return fmt.Errorf("trace: conflicts snapshot names no manager")
	}
	if snap.SampledTxs == 0 {
		return fmt.Errorf("trace: no transactions sampled during the storm")
	}
	if len(snap.HotObjects) == 0 {
		return fmt.Errorf("trace: no hot objects attributed during the storm")
	}
	if resp, err = http.Get(base + "/debug/stm/conflicts?format=text&top=5"); err != nil {
		return fmt.Errorf("trace: GET conflicts text: %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("trace: GET conflicts text: status %d", resp.StatusCode)
	}

	c, err := dial(addr)
	if err != nil {
		return fmt.Errorf("trace: dial: %w", err)
	}
	defer c.conn.Close()
	v, err := c.must("ABORTLOG", "LEN")
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	held := v.Int
	if v, err = c.must("ABORTLOG", "GET", "5"); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	for _, e := range v.Elems {
		if len(e.Elems) != 9 {
			return fmt.Errorf("trace: ABORTLOG entry has %d fields, want 9", len(e.Elems))
		}
	}
	fmt.Printf("smoke: trace ok — %d txs sampled (hot: %s), %d abort causes, abortlog holds %d\n",
		snap.SampledTxs, snap.HotObjects[0].Obj, len(snap.Causes), held)
	return nil
}

// smokeDurability checks the two durable-mode acceptance gates after
// the loadgen storm: the log's counters must be consistent — one fsync
// per batch, no batch without a record, nothing dropped, and at rest
// nothing appended that is not durable — and recovering the directory
// as-is (no clean shutdown of the log) must reproduce the live state.
// How many records share an fsync is printed, not gated: it is the
// device's speed over the arrival rate, not a property of the code
// (internal/wal's TestFlushDrainsQueue proves the sharing).
func smokeDurability(store *kv.Store, l *wal.Log, lcfg loadConfig) error {
	st := l.Stats()
	if st.Records() == 0 {
		return fmt.Errorf("smoke: wal: no records logged under load")
	}
	fmt.Printf("smoke: wal — %d records in %d batches, %d fsyncs (%.4f fsyncs/record), %d dropped, lsn %d/%d durable\n",
		st.Records(), st.Batches, st.Fsyncs, float64(st.Fsyncs)/float64(st.Records()), st.Dropped, st.Durable, st.Enqueued)
	if st.Batches != st.Fsyncs || st.Fsyncs > st.Records() || st.Dropped != 0 || st.Durable != st.Enqueued {
		return fmt.Errorf("smoke: wal: inconsistent at rest: %+v (want batches == fsyncs <= records, 0 dropped, durable == enqueued)", st)
	}

	// Let every short-TTL loadgen key cross its deadline so the
	// pre/post state comparison is not racing expiry.
	time.Sleep(20 * time.Millisecond)
	pre, err := store.SnapshotOps()
	if err != nil {
		return fmt.Errorf("smoke: snapshot ops: %w", err)
	}
	fresh := kv.New(stm.New(), kv.WithClock(func() int64 { return time.Now().UnixNano() }))
	if _, err := wal.Recover(l.Dir(), fresh.Apply); err != nil {
		return fmt.Errorf("smoke: recover: %w", err)
	}
	post, err := fresh.SnapshotOps()
	if err != nil {
		return fmt.Errorf("smoke: restored snapshot ops: %w", err)
	}
	sortOps(pre)
	sortOps(post)
	if diff := diffOps(pre, post); diff != "" {
		return fmt.Errorf("smoke: restore mismatch: %s", diff)
	}
	sum := 0
	for i := 0; i < transferAccounts; i++ {
		v, ok, err := fresh.Get(fmt.Sprintf("acct:%d", i))
		if err != nil || !ok {
			return fmt.Errorf("smoke: restored account %d missing (%v)", i, err)
		}
		var n int
		fmt.Sscan(v, &n)
		sum += n
	}
	if want := transferAccounts * 1000; sum != want {
		return fmt.Errorf("smoke: restored conservation broken: %d, want %d", sum, want)
	}
	if lcfg.typed {
		// The typed ledger must conserve through recovery too: the hash
		// replays field by field, so a lost or doubled HINCRBY would
		// break the sum even when the op-for-op comparison above passed
		// (it compares against the live store, not the ground truth).
		var pairs []kv.KV
		err := fresh.Atomically(func(tx *stm.Tx, now int64) (err error) {
			pairs, err = fresh.HGetAllTx(tx, now, typedStatsKey)
			return err
		})
		if err != nil {
			return fmt.Errorf("smoke: restored typed ledger: %w", err)
		}
		hsum := 0
		for _, p := range pairs {
			var n int
			if _, err := fmt.Sscan(p.V, &n); err != nil {
				return fmt.Errorf("smoke: restored ledger field %s holds %q", p.K, p.V)
			}
			hsum += n
		}
		if want := transferAccounts * 1000; hsum != want {
			return fmt.Errorf("smoke: restored typed ledger broken: %d, want %d", hsum, want)
		}
	}
	fmt.Printf("smoke: restore ok — %d live entries reproduced, accounts conserved (typed=%v)\n", len(post), lcfg.typed)
	return nil
}

// sortOps orders ops by key, stably: SnapshotOps emits each key's op
// sequence in a canonical order, so a stable by-key sort makes two
// dumps of the same logical state comparable.
func sortOps(ops []wal.Op) {
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].Key < ops[j].Key })
}

// diffOps reports the first divergence between two sorted op dumps —
// naming the key, kind and values on both sides — or "" if they
// match. A bare length mismatch is useless in a flake report; the
// offending key is what lets the failure be diagnosed post-hoc.
func diffOps(pre, post []wal.Op) string {
	n := min(len(pre), len(post))
	for i := 0; i < n; i++ {
		if pre[i] != post[i] {
			return fmt.Sprintf("at index %d: live %+v, restored %+v", i, pre[i], post[i])
		}
	}
	switch {
	case len(pre) > n:
		return fmt.Sprintf("%d restored entries, want %d; first live-only op %+v", len(post), len(pre), pre[n])
	case len(post) > n:
		return fmt.Sprintf("%d restored entries, want %d; first restored-only op %+v", len(post), len(pre), post[n])
	}
	return ""
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "stmkv:", err)
	os.Exit(1)
}

// fields joins a command's words for error reporting.
func fields(args []string) string { return strings.Join(args, " ") }
