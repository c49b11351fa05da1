// Command stmkv serves the transactional key-value store over a
// RESP-lite protocol (see README.md for usage and the wire surface).
//
//	stmkv                          # serve on -addr (default :6399)
//	stmkv -data DIR                # serve durably: recover, then log + snapshot
//
// The server runs one goroutine per connection; every command borrows
// a pooled STM session, so concurrent clients commit in parallel under
// the striped commit protocol, arbitrated by the contention manager
// named with -manager. With -data, committed write sets are
// group-committed to a write-ahead log and SAVE/BGSAVE cut snapshots
// that truncate it (DESIGN.md §Durability). The store's shape (16
// shards of 8 initial buckets) is fixed.
//
// The tests start the server the way main does (start): TestSmoke in
// process under internal/kvclient's load, TestCrashRestart as a built
// binary killed with SIGKILL five times.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
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
	cfg := serverFlags(flag.CommandLine)
	flag.Parse()
	if err := serve(*cfg); err != nil {
		fmt.Fprintln(os.Stderr, "stmkv:", err)
		os.Exit(1)
	}
}

// serverFlags defines the server's flags on fs and returns the config
// they fill in when fs is parsed.
func serverFlags(fs *flag.FlagSet) *serverConfig {
	cfg := new(serverConfig)
	fs.StringVar(&cfg.addr, "addr", ":6399", "listen address")
	fs.StringVar(&cfg.manager, "manager", "greedy", "contention manager registry name (see stmbench -list)")
	fs.StringVar(&cfg.metrics, "metrics", "", "observability HTTP listener serving /metrics, /healthz and /debug/pprof (empty disables)")
	fs.IntVar(&cfg.txtrace, "txtrace", 0, "transaction flight recorder: sample 1 in N transactions into ABORTLOG and /debug/stm/conflicts (0 disables)")
	fs.StringVar(&cfg.data, "data", "", "durability directory: recover on boot, then write-ahead log every commit (empty = memory only)")
	fs.DurationVar(&cfg.sweep, "sweep", 500*time.Millisecond, "background TTL sweep cadence for a full pass over all shards; shards holding no TTL are skipped (0 disables)")
	fs.StringVar(&cfg.bgsave, "bgsave-every", "", "scheduled BGSAVE cadence: a duration (\"30s\") or a logged-record count (\"500ops\"); empty disables (durable mode only)")
	return cfg
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
// statistics on its own listener, so scraping and profiling never
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
	var conflicts *obs.Conflicts
	if tr != nil {
		conflicts = tr.conflicts
	}
	hs := &http.Server{Handler: obs.Mux(srv.WriteMetrics, health, conflicts)}
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

// start is the one start-up sequence, for main and the tests: open
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
	// Catch the signals before the boot line is printed: a client may
	// act on that line at once, and a SIGTERM that arrived before
	// Notify would kill the process without the clean shutdown.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	inst, err := start(cfg)
	if err != nil {
		return err
	}
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
