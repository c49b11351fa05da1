package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// This file runs the server under test as a child process: the
// generator's garbage collector and the server's never share a heap,
// and the server's CPU time, peak memory and system calls are readable
// from /proc/<pid>.

// buildServer compiles ./cmd/stmkv of the checkout at root into dir.
// The go command's own caching makes the second call cheap.
func buildServer(root, dir string) (string, error) {
	bin := filepath.Join(dir, "stmkv")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/stmkv")
	cmd.Dir = root
	// The root module vendors its dependencies; a caller's GOFLAGS must
	// not switch that off, and nothing may be fetched.
	cmd.Env = append(os.Environ(), "GOFLAGS=", "GOPROXY=off", "GOWORK=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/stmkv in %s: %w\n%s", root, err, out)
	}
	return bin, nil
}

// child is one running stmkv.
type child struct {
	cmd  *exec.Cmd
	addr string
	// recovered is the server's own account of what it replayed at
	// boot (durable mode): snapshot ops + log ops.
	recoveredOps int64

	mu     sync.Mutex
	stderr []string // every line the server wrote, for diagnostics
	waited chan struct{}
}

var (
	servingRE   = regexp.MustCompile(`serving on (\S+)`)
	recoveredRE = regexp.MustCompile(`snapshot (\d+) ops .* records \((\d+) ops\)`)
)

// children tracks every live child so that main's signal handler and
// error paths can kill what is still running.
var children struct {
	sync.Mutex
	live map[*child]struct{}
}

// killAll kills and reaps every child still running.
func killAll() {
	children.Lock()
	live := make([]*child, 0, len(children.live))
	for c := range children.live {
		live = append(live, c)
	}
	children.Unlock()
	for _, c := range live {
		c.kill()
	}
}

// startServer launches bin on an ephemeral loopback port with default
// flags plus extra, and returns once the server has announced its
// address. The seed and the workload's name are never among the flags.
func startServer(bin string, extra ...string) (*child, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, extra...)...)
	// If the benchmark dies without running its cleanup (SIGKILL), the
	// kernel kills the server with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	c := &child{cmd: cmd, waited: make(chan struct{})}
	children.Lock()
	if children.live == nil {
		children.live = make(map[*child]struct{})
	}
	children.live[c] = struct{}{}
	children.Unlock()

	ready := make(chan string, 1)
	go func() {
		// Drain stderr for the child's whole life so it can never block
		// on a full pipe; Wait only after EOF, as os/exec requires.
		sc := bufio.NewScanner(pipe)
		announced := false
		for sc.Scan() {
			line := sc.Text()
			c.mu.Lock()
			c.stderr = append(c.stderr, line)
			if m := recoveredRE.FindStringSubmatch(line); m != nil {
				snap, _ := strconv.ParseInt(m[1], 10, 64)
				ops, _ := strconv.ParseInt(m[2], 10, 64)
				c.recoveredOps = snap + ops
			}
			c.mu.Unlock()
			if m := servingRE.FindStringSubmatch(line); m != nil && !announced {
				announced = true
				ready <- m[1]
			}
		}
		_, _ = io.Copy(io.Discard, pipe)
		_ = cmd.Wait() // the exit status of a server we kill is not news
		if !announced {
			close(ready)
		}
		close(c.waited)
	}()
	select {
	case addr, ok := <-ready:
		if !ok {
			c.kill()
			return nil, fmt.Errorf("%s exited before serving:\n%s", bin, c.log())
		}
		c.addr = addr
		return c, nil
	case <-time.After(60 * time.Second):
		c.kill()
		return nil, fmt.Errorf("%s did not announce an address within 60s:\n%s", bin, c.log())
	}
}

func (c *child) pid() int { return c.cmd.Process.Pid }

func (c *child) log() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return strings.Join(c.stderr, "\n")
}

func (c *child) recovered() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.recoveredOps
}

// kill sends SIGKILL and waits until the process has been reaped.
// Safe to call more than once.
func (c *child) kill() {
	_ = c.cmd.Process.Kill() // already exited is fine
	<-c.waited
	children.Lock()
	delete(children.live, c)
	children.Unlock()
}

// procSample is what /proc says about a process at one instant.
type procSample struct {
	cpu          time.Duration // user + system, all threads, dead ones included
	syscr, syscw int64         // read- and write-class system calls
	ctxSwitches  int64         // voluntary + involuntary, summed over live threads
	hwmKB        int64         // VmHWM: peak resident set
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat
// times; it is 100 on every Linux architecture Go supports.
const clockTick = 10 * time.Millisecond

func readProc(pid int) (procSample, error) {
	var s procSample
	dir := "/proc/" + strconv.Itoa(pid)
	stat, err := os.ReadFile(dir + "/stat")
	if err != nil {
		return s, err
	}
	// Fields are counted after the parenthesised command name, which may
	// itself contain spaces: utime and stime are the 14th and 15th
	// fields overall, the 12th and 13th after ") ".
	rest := string(stat)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return s, fmt.Errorf("%s/stat: %d fields", dir, len(f))
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return s, fmt.Errorf("%s/stat: %w", dir, err)
	}
	s.cpu = time.Duration(utime+stime) * clockTick

	if io, err := os.ReadFile(dir + "/io"); err == nil {
		s.syscr, s.syscw = procField(io, "syscr:"), procField(io, "syscw:")
	}
	status, err := os.ReadFile(dir + "/status")
	if err != nil {
		return s, err
	}
	s.hwmKB = procField(status, "VmHWM:")
	// The context-switch counters in /proc/<pid>/status are the main
	// thread's alone; the server's work runs on every thread.
	tasks, err := filepath.Glob(dir + "/task/*/status")
	if err != nil {
		return s, err
	}
	for _, t := range tasks {
		if b, err := os.ReadFile(t); err == nil { // a thread may exit between Glob and read
			s.ctxSwitches += procField(b, "voluntary_ctxt_switches:") + procField(b, "nonvoluntary_ctxt_switches:")
		}
	}
	return s, nil
}

// procField returns the first integer after label in a /proc file.
func procField(b []byte, label string) int64 {
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, label); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				n, _ := strconv.ParseInt(f[0], 10, 64)
				return n
			}
		}
	}
	return 0
}

// selfCPU is the benchmark process's own user + system time.
func selfCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}
