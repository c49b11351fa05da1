// Command bench is the repository's performance gate: the
// wire-to-fsync benchmark. One invocation runs one named workload from
// one seed, prints every metric of its mode by name with its unit,
// checks that replies and final state are correct, and exits non-zero
// if they are not. BENCHMARK.json at the repository root names the
// command, the workloads and the metrics; README.md in this directory
// is the metric dictionary.
//
//	bash bench/run.sh --workload wire-pipelined --seed 3 --seconds 10 --trace 0
//	bash bench/run.sh --workload wire-pipelined --seed 3 --seconds 10 --trace 1
//
// --trace 0 is the end-to-end run. --trace 1 is the separate traced run
// that prints the per-layer metrics and writes the spans it recorded to
// bench/out/<workload>.trace.json; it never feeds an end-to-end number.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	flag.Uint64Var(&cfg.seed, "seed", 1, "the only source of randomness: equal seeds give byte-identical request streams")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end run; 1: the traced per-layer run")
	flag.StringVar(&cfg.root, "root", "", "repository checkout (default: found upwards from the working directory)")
	flag.StringVar(&cfg.serverBin, "server-bin", "", "prebuilt stmkv (default: built from the checkout)")
	flag.Parse()
	cfg.trace = trace != 0
	if err := cfg.locate(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}

	// Whatever ends the run — an error, a failed check, SIGINT — no
	// stmkv and no data directory outlives it.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		killAll()
		cleanData(cfg.outDir)
		os.Exit(130)
	}()

	code := 0
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		code = 1
	}
	killAll()
	cleanData(cfg.outDir)
	os.Exit(code)
}

// locate finds the checkout and the output directory inside it.
func (cfg *config) locate() error {
	if cfg.root == "" {
		root, err := findRoot()
		if err != nil {
			return err
		}
		cfg.root = root
	}
	cfg.outDir = filepath.Join(cfg.root, "bench", "out")
	return os.MkdirAll(cfg.outDir, 0o755)
}

// errIncorrect is a run whose numbers were printed but whose checks
// failed.
var errIncorrect = errors.New("the run is incorrect: failed replies or violated invariants (see VIOLATION lines)")

// run is one invocation: cfg names the workload, the seed, the mode and
// where the checkout is.
func run(cfg config) error {
	sp, ok := specs[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown -workload %q (have %s)", cfg.workload, strings.Join(workloadNames, ", "))
	}
	if cfg.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	cfg.defaults()
	if cfg.serverBin == "" && (cfg.trace || sp.name != wlEngine) {
		buildDir := filepath.Join(cfg.root, ".bench_build")
		if err := os.MkdirAll(buildDir, 0o755); err != nil {
			return err
		}
		bin, err := buildServer(cfg.root, buildDir)
		if err != nil {
			return err
		}
		cfg.serverBin = bin
	}
	fsyncUs, err := fsyncFloor(cfg.outDir)
	if err != nil {
		return err
	}
	printHeader(cfg, fsyncUs)
	rep := newReport()
	defs := endToEnd
	switch {
	case cfg.trace:
		defs = perLayer
		rep.set("os.fsync_us", fsyncUs)
		err = runTrace(cfg, sp, rep)
	case sp.name == wlEngine:
		err = runEngine(cfg, sp, rep)
	default:
		err = runWire(cfg, sp, rep)
	}
	if err != nil {
		return err
	}
	if err := rep.print(os.Stdout, defs); err != nil {
		return err
	}
	if !rep.correct() {
		return errIncorrect
	}
	return nil
}

// defaults fixes the knobs a production run does not expose. The
// issue's phases (5 s warm-up, 25 s measured) are shortened together so
// that the driver's ninety-odd runs fit its time cap: the warm-up keeps
// its 1:5 ratio to the measured phase. Five instances: the median of
// five tolerates two servers with unlucky hash seeds, and about one in
// six is (README.md, "Why five instances").
func (cfg *config) defaults() {
	cfg.nconn = runtime.NumCPU()
	cfg.instances = 5
	cfg.warmup = time.Duration(cfg.seconds / 5 * float64(time.Second))
	cfg.ladderOps = 20_000
}

// findRoot walks up from the working directory to the root module.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(b), "module repro\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no checkout of the repro module above the working directory; pass -root")
		}
		dir = parent
	}
}

// cleanData removes data directories a run left under out (an
// interrupted durable run); traces stay.
func cleanData(out string) {
	if out == "" {
		return
	}
	dirs, _ := filepath.Glob(filepath.Join(out, "data-*"))
	for _, d := range dirs {
		os.RemoveAll(d)
	}
}

// printHeader states where the numbers come from. It is on every
// result, so a pasted result cannot be mistaken for another machine's.
func printHeader(cfg config, fsyncUs float64) {
	mode := "end-to-end (tracing off)"
	if cfg.trace {
		mode = "traced (per-layer)"
	}
	fmt.Printf("bench %s seed=%d seconds=%g mode=%s\n", cfg.workload, cfg.seed, cfg.seconds, mode)
	// The server child inherits this process's environment and sets no
	// GOMAXPROCS of its own, so it resolves to the same value.
	fmt.Printf("env commit=%s go=%s kernel=%s nproc=%d GOMAXPROCS=%d (generator) %d (server)\n",
		gitCommit(cfg.root), runtime.Version(), kernelRelease(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.GOMAXPROCS(0))
	fmt.Printf("env datadir=%s fs=%s os.fsync_us=%.1f loadavg1=%s\n", cfg.outDir, fsType(cfg.outDir), fsyncUs, loadAvg1())
	fmt.Printf("env note: %d-core numbers measure this box, with generator and server sharing its cores; wire-durable's kill -9 check is log-protocol-level only (the OS page cache survives the kill)\n", runtime.NumCPU())
}

func gitCommit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown" // the driver's checkout is not a git repository
	}
	return strings.TrimSpace(string(out))
}

func kernelRelease() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

func loadAvg1() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	return strings.Fields(string(b))[0]
}

// fsType names the filesystem holding dir, from its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs",
		0x9123683E: "btrfs", 0x6969: "nfs", 0x2fc12fc1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// fsyncFloor is os.fsync_us: a bare 4 KiB write + fsync in the data
// directory's filesystem, median of 21 — the device floor under
// wire-durable, and the first thing to look at when its numbers differ
// between two boxes.
func fsyncFloor(dir string) (float64, error) {
	f, err := os.CreateTemp(dir, "fsync-*")
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	page := make([]byte, 4096)
	var us []float64
	for i := 0; i < 21; i++ {
		t0 := time.Now()
		if _, err := f.Write(page); err != nil {
			return 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, err
		}
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return median(us), nil
}
