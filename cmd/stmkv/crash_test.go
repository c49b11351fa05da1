//go:build linux

package main

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/kvclient"
)

// TestCrashRestart builds stmkv and kills it with SIGKILL five times on
// one data directory, auditing over the wire after each restart
// (DESIGN.md §Durability has why the log's per-key order makes the
// audit sound, why a snapshot may be cut under writers, and the
// ack-ordering invariant of the last phase):
//
//  1. seed a durable server under typed load, plant TTL and container
//     probes, SAVE, kill;
//  2. restart with a snapshot every 400 logged records and kill it 3 s
//     into a binary-keyed typed load;
//  3. restart: the probes (a long TTL survives with its deadline, a
//     short one stays dead, each container comes back element for
//     element) and kvclient.Audit (accounts and hash ledger conserved,
//     private lists single FIFO runs) hold;
//  4. under typed load, BGSAVE every 20 ms from a side connection and
//     kill as the 40th snapshot starts: a push both in the snapshot and
//     replayed, or lost between them, breaks a list's run on restart;
//  5. send 64 SETs in one write, kill on the 64th +OK, restart: every
//     acknowledged SET reads back, since no reply leaves before its
//     record is fsynced. A SIGTERM then shuts the server down cleanly.
func TestCrashRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("builds stmkv and kills it under load five times (~10 s)")
	}
	bin := buildStmkv(t)
	data := t.TempDir()

	t.Log("phase 1: seed a durable server, plant TTL and typed probes, snapshot")
	p := startStmkv(t, bin, data)
	if _, err := kvclient.Drive(p.addr, kvclient.Load{Clients: 8, Ops: 500}); err != nil {
		t.Fatal(err)
	}
	c := dial(t, p.addr)
	if err := kvclient.PlantProbes(c); err != nil {
		t.Fatal(err)
	}
	audit(t, c)
	if _, err := c.Must("SAVE"); err != nil {
		t.Fatal(err)
	}
	p.kill()

	t.Log("phase 2: restart with scheduled snapshots, kill -9 mid-load")
	p = startStmkv(t, bin, data, "-bgsave-every", "400ops")
	load := background(p.addr, kvclient.Load{Clients: 8, Ops: 1_000_000, BinKeys: true})
	time.Sleep(3 * time.Second)
	p.killUnder(t, load)

	t.Log("phase 3: restart and audit the restored state")
	p = startStmkv(t, bin, data)
	c = dial(t, p.addr)
	if err := kvclient.CheckProbes(c); err != nil {
		t.Fatal(err)
	}
	audit(t, c)

	t.Log("phase 4: typed load, BGSAVE in a loop, kill -9 as the 40th snapshot starts")
	load = background(p.addr, kvclient.Load{Clients: 8, Ops: 1_000_000})
	time.Sleep(time.Second)
	for started := 0; ; time.Sleep(20 * time.Millisecond) {
		v, err := c.Do("BGSAVE")
		if err != nil {
			t.Fatalf("BGSAVE %d: %v", started+1, err)
		}
		if v.Str == "Background saving started" {
			if started++; started == 40 {
				break
			}
		}
	}
	p.killUnder(t, load)
	p = startStmkv(t, bin, data)
	c = dial(t, p.addr)
	if err := kvclient.CheckProbes(c); err != nil {
		t.Fatal(err)
	}
	audit(t, c)

	t.Log("phase 5: 64 pipelined SETs in one write, kill -9 on the last +OK, read them back")
	var sets, gets [][]string
	for i := 1; i <= 64; i++ {
		k := "pipe:" + strconv.Itoa(i)
		sets = append(sets, []string{"SET", k, "acked-" + strconv.Itoa(i)})
		gets = append(gets, []string{"GET", k})
	}
	vs, err := c.Pipeline(sets...)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vs {
		if v.Str != "OK" {
			t.Fatalf("pipelined SET %d answered %+v", i+1, v)
		}
	}
	p.kill()
	p = startStmkv(t, bin, data)
	if vs, err = dial(t, p.addr).Pipeline(gets...); err != nil {
		t.Fatal(err)
	}
	for i, v := range vs {
		if want := "acked-" + strconv.Itoa(i+1); v.Str != want {
			t.Fatalf("pipe:%d was acknowledged, then lost across kill -9 (read back %+v)", i+1, v)
		}
	}
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if <-p.exited; p.err != nil {
		t.Fatalf("stmkv after SIGTERM: %v\n%s", p.err, p.log())
	}
}

// buildStmkv compiles this command into a temporary directory, as the
// benchmark builds the server it runs.
func buildStmkv(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "stmkv")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/stmkv")
	cmd.Dir = filepath.Join("..", "..")
	// The module vendors its dependencies; a caller's GOFLAGS must not
	// switch that off, and nothing may be fetched.
	cmd.Env = append(os.Environ(), "GOFLAGS=", "GOPROXY=off", "GOWORK=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/stmkv: %v\n%s", err, out)
	}
	return bin
}

// The boot lines, as the benchmark reads them.
var (
	servingRE   = regexp.MustCompile(`serving on (\S+)`)
	recoveredRE = regexp.MustCompile(`snapshot (\d+) ops .* records \((\d+) ops\)`)
)

// proc is one running stmkv.
type proc struct {
	cmd    *exec.Cmd
	addr   string        // from the boot line
	exited chan struct{} // closed once the process is reaped
	err    error         // Wait's result, set before exited closes

	mu     sync.Mutex
	stderr []string
}

// startStmkv runs bin durably on an ephemeral loopback port and returns
// once it has printed its recovery line and its address. The process is
// killed when the test ends.
func startStmkv(t *testing.T, bin, data string, args ...string) *proc {
	t.Helper()
	p := &proc{
		cmd:    exec.Command(bin, append([]string{"-addr", "127.0.0.1:0", "-data", data}, args...)...),
		exited: make(chan struct{}),
	}
	// If the test binary dies without its cleanups, the server dies too.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pipe, err := p.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.kill)
	ready := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(pipe)
		for announced := false; sc.Scan(); {
			p.mu.Lock()
			p.stderr = append(p.stderr, sc.Text())
			p.mu.Unlock()
			if m := servingRE.FindStringSubmatch(sc.Text()); m != nil && !announced {
				announced = true
				ready <- m[1]
			}
		}
		p.err = p.cmd.Wait()
		close(p.exited)
	}()
	select {
	case p.addr = <-ready:
	case <-p.exited:
		t.Fatalf("stmkv exited before serving: %v\n%s", p.err, p.log())
	case <-time.After(60 * time.Second):
		t.Fatalf("stmkv did not announce an address within 60 s:\n%s", p.log())
	}
	if !recoveredRE.MatchString(p.log()) {
		t.Fatalf("no recovery line before the address:\n%s", p.log())
	}
	t.Logf("%s", p.log())
	return p
}

func (p *proc) log() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.stderr, "\n")
}

// kill sends SIGKILL and waits until the process is reaped; calling it
// again is a no-op.
func (p *proc) kill() {
	_ = p.cmd.Process.Kill() // fails only once the process has exited
	<-p.exited
}

// killUnder kills p under a background load, which must still have
// been running: an error it met before the kill is a failed check, not
// the crash.
func (p *proc) killUnder(t *testing.T, load <-chan error) {
	t.Helper()
	select {
	case err := <-load:
		t.Fatalf("the load ended before the kill: %v", err)
	default:
	}
	p.kill()
	<-load
}

// background runs kvclient.Drive until it ends, which under a killed
// server is an error.
func background(addr string, l kvclient.Load) <-chan error {
	done := make(chan error, 1)
	go func() {
		_, err := kvclient.Drive(addr, l)
		done <- err
	}()
	return done
}

func dial(t *testing.T, addr string) *kvclient.Client {
	t.Helper()
	c, err := kvclient.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func audit(t *testing.T, c *kvclient.Client) {
	t.Helper()
	summary, err := kvclient.Audit(c)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(summary)
}
