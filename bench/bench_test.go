package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

// The tests run every workload end to end against a real child stmkv,
// with 200 ms windows, key populations a fiftieth of production's and a
// 2 000-op trace, then hold the output to BENCHMARK.json. They build
// ./cmd/stmkv once; everything they write goes under out/.

var testEnv struct {
	root, out, serverBin string
}

func TestMain(m *testing.M) {
	os.Exit(func() int {
		root, err := findRoot()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := os.MkdirAll(filepath.Join(root, "bench", "out"), 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		out, err := os.MkdirTemp(filepath.Join(root, "bench", "out"), "test-")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer os.RemoveAll(out)
		bin, err := buildServer(root, out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		testEnv.root, testEnv.out, testEnv.serverBin = root, out, bin
		defer killAll() // a failed test must not leave a server behind
		return m.Run()
	}())
}

// testConfig is a run small enough for the unit-test budget.
func testConfig(workload string, trace bool) (config, spec) {
	cfg := config{
		workload: workload, seed: 42, seconds: 1, trace: trace,
		root: testEnv.root, outDir: testEnv.out, serverBin: testEnv.serverBin,
		instances: 1, warmup: 100 * time.Millisecond,
		streamUnits: 2048, ladderOps: 2000, nconn: 2,
	}
	sp := specs[workload]
	sp.strKeys /= 50
	sp.counters /= 50
	sp.backlog /= 50
	// A 2 000-op trace — a fifth of that where every op waits for an fsync.
	cfg.traceUnits = 2000 / sp.depth
	if sp.durable {
		cfg.traceUnits /= 5
	}
	return cfg, sp
}

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []benchMetric `json:"end_to_end"`
	PerLayer   []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name, Unit, Better string
	Bound              *float64
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(testEnv.root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkFile holds BENCHMARK.json to the dictionary in
// metrics.go and to the workload list: same names, same units, same
// order, each once.
func TestBenchmarkFile(t *testing.T) {
	f := readBenchmarkFile(t)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("workloads %v, want %v", names, workloadNames)
	}
	check := func(kind string, got []benchMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in metrics.go", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s[%d]: %s (%s) in BENCHMARK.json, %s (%s) in metrics.go", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
			if !nameRE.MatchString(m.Name) {
				t.Errorf("%s: name %q", kind, m.Name)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s %s: better=%q", kind, m.Name, m.Better)
			}
			if bounded != (m.Bound != nil) || (bounded && (*m.Bound <= 0 || *m.Bound > 0.25)) {
				t.Errorf("%s %s: bound %v", kind, m.Name, m.Bound)
			}
		}
	}
	check("end_to_end", f.EndToEnd, endToEnd, true)
	check("per_layer", f.PerLayer, perLayer, false)
	seen := map[string]bool{}
	for _, d := range append(slices.Clone(endToEnd), perLayer...) {
		if seen[d.name] {
			t.Errorf("metric %s is defined twice", d.name)
		}
		seen[d.name] = true
	}
	if !slices.ContainsFunc(f.EndToEnd, func(m benchMetric) bool { return m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" }) {
		t.Error("end_to_end lacks setup_s [s, lower]")
	}
}

// TestStreamsAreDeterministic: the seed is the only source of
// randomness. Same seed, byte-identical request stream; another seed,
// another stream.
func TestStreamsAreDeterministic(t *testing.T) {
	for _, name := range workloadNames {
		sp := specs[name]
		for conn := 0; conn < 2; conn++ {
			a := genStream(sp, 7, conn, 2, 512)
			b := genStream(sp, 7, conn, 2, 512)
			c := genStream(sp, 8, conn, 2, 512)
			if !bytes.Equal(a.buf, b.buf) || !slices.Equal(a.units, b.units) || !slices.Equal(a.cmds, b.cmds) {
				t.Errorf("%s conn %d: the same seed gave two different streams", name, conn)
			}
			if bytes.Equal(a.buf, c.buf) {
				t.Errorf("%s conn %d: seeds 7 and 8 gave the same stream", name, conn)
			}
			if len(a.units) != 512 || len(a.buf) == 0 {
				t.Errorf("%s conn %d: %d units, %d bytes", name, conn, len(a.units), len(a.buf))
			}
		}
		if a, b := genStream(sp, 7, 0, 2, 512), genStream(sp, 7, 1, 2, 512); bytes.Equal(a.buf, b.buf) {
			t.Errorf("%s: two connections of one run got the same stream", name)
		}
	}
}

// TestEngineStreamDrains: the engine stream may be cycled because every
// member it promotes it also completes before it ends.
func TestEngineStreamDrains(t *testing.T) {
	jobs := genJobs(newRNG(3, wlEngine, 0), 0, 2, 4096)
	active := map[string]bool{}
	for i, j := range jobs {
		switch j.verb {
		case verbPromote:
			if active[j.member] {
				t.Fatalf("job %d promotes %s twice", i, j.member)
			}
			active[j.member] = true
			if len(active) > (jobsActiveMax-jobsStanding)/2 {
				t.Fatalf("job %d: %d members outstanding for one of two workers", i, len(active))
			}
		case verbComplete:
			if !active[j.member] {
				t.Fatalf("job %d completes %s, which is not active", i, j.member)
			}
			delete(active, j.member)
		}
	}
	if len(active) != 0 {
		t.Errorf("%d members still active at the end of the stream", len(active))
	}
}

// TestJournalCatchesLostWrite: the crash audit accepts the last
// acknowledged value or an in-flight one, and nothing older.
func TestJournalCatchesLostWrite(t *testing.T) {
	sp := specs[wlDurable]
	st := genStream(sp, 5, 0, 2, 64)
	ks := newKeyspace(5)
	w := &closedWorker{st: st, acked: 40}
	j := buildJournal(5, []*closedWorker{w}, []*stream{st})
	// Find a key whose last acknowledged write was a SET that an earlier
	// acknowledged SET of the same key preceded.
	last, prev := map[string]string{}, map[string]string{}
	for u := 0; u < 40; u++ {
		for k := st.units[u].c0; k < st.units[u].c1; k++ {
			if c := &st.cmds[k]; c.op == opSet {
				key := ks.key('s', c.key)
				if v, ok := last[key]; ok {
					prev[key] = v
				}
				last[key] = string(st.buf[c.voff : c.voff+c.vlen])
			}
		}
	}
	checked := 0
	for key, stale := range prev {
		want, ok := j.acked[key]
		if !ok {
			t.Fatalf("journal has no entry for written key %s", key)
		}
		if !want.present || want.val != last[key] {
			continue // the last acknowledged write was a DEL
		}
		checked++
		if want.val == stale {
			t.Errorf("key %s: journal expects the stale value", key)
		}
		for _, alt := range j.allowed[key] {
			if alt.val == stale {
				t.Errorf("key %s: the stale value is among the in-flight alternatives", key)
			}
		}
	}
	if checked == 0 {
		t.Fatal("the stream never overwrote a key: the test checked nothing")
	}
}

// TestSkipReply: the load connection's reply skipper consumes exactly
// one reply of every kind, nested arrays included.
func TestSkipReply(t *testing.T) {
	in := "+OK\r\n:-12\r\n$5\r\nhello\r\n$-1\r\n*2\r\n:1\r\n*1\r\n$1\r\nx\r\n-ERR no\r\n+END\r\n"
	lc := &loadConn{br: bufio.NewReader(strings.NewReader(in))}
	want := []struct {
		kind byte
		n    int64
	}{{'+', 0}, {':', -12}, {'$', 5}, {'$', -1}, {'*', 2}, {'-', 0}, {'+', 0}}
	for i, w := range want {
		kind, n, err := lc.skip()
		if err != nil || kind != w.kind || n != w.n {
			t.Fatalf("reply %d: got %q %d %v, want %q %d", i, kind, n, err, w.kind, w.n)
		}
	}
	if _, _, err := lc.skip(); err == nil {
		t.Error("skip past the end did not fail")
	}
	for _, bad := range []string{"?what\r\n", ":12x\r\n", "$3\r\nab", "+no-cr\n"} {
		lc := &loadConn{br: bufio.NewReader(strings.NewReader(bad))}
		if _, _, err := lc.skip(); err == nil {
			t.Errorf("skip(%q) did not fail", bad)
		}
	}
}

// runAndValidate runs one mode of one workload and holds what it
// printed to BENCHMARK.json.
func runAndValidate(t *testing.T, workload string, trace bool) {
	t.Helper()
	cfg, sp := testConfig(workload, trace)
	rep := newReport()
	var err error
	defs, want := endToEnd, readBenchmarkFile(t).EndToEnd
	switch {
	case trace:
		defs, want = perLayer, readBenchmarkFile(t).PerLayer
		rep.set("os.fsync_us", 1)
		err = runTrace(cfg, sp, rep)
	case workload == wlEngine:
		err = runEngine(cfg, sp, rep)
	default:
		err = runWire(cfg, sp, rep)
	}
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := rep.print(&out, defs); err != nil {
		t.Fatal(err)
	}
	if !rep.correct() {
		t.Errorf("the run is incorrect:\n%s", out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res resultLine
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("result line: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics printed, BENCHMARK.json names %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok {
			t.Errorf("metric %s is missing from the result line", m.Name)
			continue
		}
		if got.Unit != m.Unit {
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		}
		// The human-readable table names every metric exactly once too.
		n := 0
		for _, l := range lines[:len(lines)-1] {
			if f := strings.Fields(l); len(f) == 3 && f[0] == m.Name && f[2] == m.Unit {
				n++
			}
		}
		if n != 1 {
			t.Errorf("metric %s is printed %d times by name with its unit", m.Name, n)
		}
		if !trace && got.Value <= 0 {
			t.Errorf("end-to-end metric %s is %v: it must never be 0", m.Name, got.Value)
		}
	}
	if trace {
		if _, err := os.Stat(tracePath(cfg)); err != nil {
			t.Errorf("no trace file: %v", err)
		}
	}
}

func TestWorkloads(t *testing.T) {
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			mode := "end-to-end"
			if trace {
				mode = "traced"
			}
			t.Run(name+"/"+mode, func(t *testing.T) {
				t.Parallel()
				runAndValidate(t, name, trace)
			})
		}
	}
	t.Cleanup(func() {
		// Child-process hygiene: every server was killed and reaped, and
		// no data directory is left.
		children.Lock()
		n := len(children.live)
		children.Unlock()
		if n != 0 {
			t.Errorf("%d stmkv children still running", n)
		}
		if left, _ := filepath.Glob(filepath.Join(testEnv.out, "data-*")); len(left) != 0 {
			t.Errorf("data directories left behind: %v", left)
		}
	})
}
