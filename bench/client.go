package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/resp"
)

// This file is the load generator's wire client. The timed paths use
// loadConn, which checks replies without materialising them (the
// generator shares two cores with the server, so what it spends is
// taken from the thing it measures); the untimed control paths — INFO,
// preload acknowledgements, read-back checks — use adminConn, a plain
// resp.Reader/Writer client.

var epoch = time.Now()

// nanotime is monotonic nanoseconds since process start.
func nanotime() int64 { return int64(time.Since(epoch)) }

// loadConn reads replies by skipping over them.
type loadConn struct {
	c  net.Conn
	br *bufio.Reader
}

func newLoadConn(c net.Conn) *loadConn {
	return &loadConn{c: c, br: bufio.NewReaderSize(c, 64<<10)}
}

func dialLoad(addr string) (*loadConn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return newLoadConn(c), nil
}

var errBadReply = errors.New("malformed reply")

// skip consumes one reply and returns its kind byte and, by kind: the
// integer, the bulk length (-1 for null) or the element count.
func (lc *loadConn) skip() (kind byte, n int64, err error) {
	line, err := lc.br.ReadSlice('\n')
	if err != nil {
		return 0, 0, err
	}
	if len(line) < 3 || line[len(line)-2] != '\r' {
		return 0, 0, errBadReply
	}
	kind, line = line[0], line[1:len(line)-2]
	switch kind {
	case '+', '-':
		return kind, 0, nil
	case ':', '$', '*':
		neg := len(line) > 0 && line[0] == '-'
		if neg {
			line = line[1:]
		}
		if len(line) == 0 {
			return 0, 0, errBadReply
		}
		for _, c := range line {
			if c < '0' || c > '9' {
				return 0, 0, errBadReply
			}
			n = n*10 + int64(c-'0')
		}
		if neg {
			n = -n
		}
	default:
		return 0, 0, errBadReply
	}
	switch kind {
	case '$':
		if n >= 0 {
			if _, err := lc.br.Discard(int(n) + 2); err != nil {
				return 0, 0, err
			}
		}
	case '*':
		for i := int64(0); i < n; i++ {
			if _, _, err := lc.skip(); err != nil {
				return 0, 0, err
			}
		}
	}
	return kind, n, nil
}

// tally counts replies against what the stream said they must be.
// A reply of the wrong kind or arity, and any error reply, is a
// failure: the workloads are built so that no command can fail.
type tally struct {
	attempted, failed int64
}

func (t *tally) add(o tally) { t.attempted += o.attempted; t.failed += o.failed }

// readUnit consumes and checks the replies of one request unit.
func (lc *loadConn) readUnit(st *stream, u unit, t *tally) error {
	for k := u.c0; k < u.c1; k++ {
		kind, n, err := lc.skip()
		if err != nil {
			return err
		}
		want := &st.cmds[k]
		t.attempted++
		if kind != want.kind || (kind == '*' && n != int64(want.arity)) {
			t.failed++
		}
	}
	return nil
}

// control is the phase switch shared by a run's load goroutines.
type control struct {
	recording atomic.Bool // latency samples are kept
	stop      atomic.Bool // finish the unit in hand and return
	dying     atomic.Bool // the server is being killed: connection errors are expected
}

// phase is what the two kinds of load loop — connections over the wire,
// goroutines on a store — share: the switch their goroutines watch, the
// wait for them, and the operation counters the window clock sums.
type phase struct {
	ctl      control
	wg       sync.WaitGroup
	counters []*atomic.Int64
}

func (p *phase) ops() int64 {
	var n int64
	for _, c := range p.counters {
		n += c.Load()
	}
	return n
}

// measure keeps latency samples and window rates for d.
func (p *phase) measure(d time.Duration) windows {
	p.ctl.recording.Store(true)
	w := measureWindows(d, measureWindowsN, p.ops)
	p.ctl.recording.Store(false)
	return w
}

// halt tells the loops to stop and waits until they have.
func (p *phase) halt() {
	p.ctl.stop.Store(true)
	p.wg.Wait()
}

// closedWorker is one closed-loop connection: write a request unit,
// read its replies, repeat, cycling over the stream until told to stop.
type closedWorker struct {
	lc         *loadConn
	st         *stream
	opsPerUnit func(unit) int64
	ops        atomic.Int64 // completed operations, read by the window clock

	tally
	acked int64   // request units fully acknowledged, in stream order
	limit int64   // stop by itself after this many units (0: run until told)
	lat   []int64 // one sample per request unit while recording
	nlat  int
	// split, when set, times the three client-side segments of every
	// unit (the traced pass only: two more clock reads per unit).
	split                        bool
	writeNs, waitNs, readNs, nsN int64
}

func (w *closedWorker) run(ctl *control) error {
	units := w.st.units
	// The position in the stream follows from what has been acknowledged,
	// so a worker run a second time carries on where it stopped.
	for i := int(w.acked % int64(len(units))); !ctl.stop.Load() && (w.limit == 0 || w.acked < w.limit); i = (i + 1) % len(units) {
		u := units[i]
		t0 := nanotime()
		if _, err := w.lc.c.Write(w.st.buf[u.off:u.end]); err != nil {
			return w.connErr(ctl, err)
		}
		var t1, t2 int64
		if w.split {
			t1 = nanotime()
			if _, err := w.lc.br.Peek(1); err != nil {
				return w.connErr(ctl, err)
			}
			t2 = nanotime()
		}
		if err := w.lc.readUnit(w.st, u, &w.tally); err != nil {
			return w.connErr(ctl, err)
		}
		t3 := nanotime()
		if w.split {
			w.writeNs += t1 - t0
			w.waitNs += t2 - t1
			w.readNs += t3 - t2
			w.nsN++
		}
		if w.nlat < len(w.lat) && ctl.recording.Load() {
			w.lat[w.nlat] = t3 - t0
			w.nlat++
		}
		w.acked++
		w.ops.Add(w.opsPerUnit(u))
	}
	return nil
}

// connErr is how a worker leaves on a connection error: silently when
// the run is killing the server on purpose, as a failure otherwise.
func (w *closedWorker) connErr(ctl *control, err error) error {
	if ctl.dying.Load() {
		return nil
	}
	return fmt.Errorf("connection lost after %d request units: %w", w.acked, err)
}

// windows is the measured phase as the window clock saw it.
type windows struct {
	rates   []float64 // ops/s of each window
	ops     int64     // operations over all windows
	elapsed time.Duration
}

// rate is operations per second over the whole phase.
func (w windows) rate() float64 { return float64(w.ops) / w.elapsed.Seconds() }

// measureWindows samples an operation counter at n equally spaced
// instants over d, yielding one rate per window besides the total. The
// windows show how even the phase was (a collector cycle or a
// noisy-neighbour burst stands out); the phase is scored by its total.
func measureWindows(d time.Duration, n int, read func() int64) windows {
	var w windows
	start, prevT, prevOps := time.Now(), time.Now(), read()
	first := prevOps
	for i := 1; i <= n; i++ {
		time.Sleep(time.Until(start.Add(d * time.Duration(i) / time.Duration(n))))
		now, ops := time.Now(), read()
		w.rates = append(w.rates, float64(ops-prevOps)/now.Sub(prevT).Seconds())
		prevT, prevOps = now, ops
	}
	w.ops, w.elapsed = prevOps-first, prevT.Sub(start)
	return w
}

// openResult is one fixed-rate open-loop phase.
type openResult struct {
	tally
	lat      []int64 // per request unit, from its intended send time
	lag      []int64 // per request unit, how late the send actually ran
	backlog  int     // units sent but unanswered when sending ended
	sent     int
	duration time.Duration
}

// openLoop drives conns at a fixed total rate for d. Request k of a
// connection is due at start + k·interval whatever happened to request
// k-1; its latency runs from that due time, so a server stall is
// charged to every request it delayed (no coordinated omission). The
// reader is its own goroutine: a late reply never delays a send.
func openLoop(conns []*loadConn, streams []*stream, rate float64, d time.Duration) (openResult, error) {
	perConn := rate / float64(len(conns))
	interval := time.Duration(float64(time.Second) / perConn)
	n := int(d / interval)
	var (
		res  = make([]openResult, len(conns))
		errs = make([]error, 2*len(conns))
		wg   sync.WaitGroup
	)
	start := nanotime() + int64(10*time.Millisecond)
	for ci := range conns {
		lc, st, r := conns[ci], streams[ci], &res[ci]
		r.lat, r.lag = make([]int64, n), make([]int64, n)
		if err := lc.c.SetDeadline(time.Now().Add(d + 20*time.Second)); err != nil {
			return openResult{}, err
		}
		var received atomic.Int64
		wg.Add(2)
		go func() { // sender
			defer wg.Done()
			// nanosleep rounds wake-ups to the thread's timer slack, 50 µs
			// by default; 1 ns makes a sleep end when it was asked to. The
			// setting is per thread, so the goroutine keeps its thread.
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			const prSetTimerslack = 29
			_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0) // best effort: a refusal only costs precision
			for k := 0; k < n; k++ {
				due := start + int64(k)*int64(interval)
				sleepUntil(due)
				u := st.units[k%len(st.units)]
				r.lag[k] = nanotime() - due
				if _, err := lc.c.Write(st.buf[u.off:u.end]); err != nil {
					errs[2*ci] = fmt.Errorf("open loop send %d: %w", k, err)
					// Unblock the reader: nothing more will be answered.
					lc.c.Close()
					return
				}
			}
			r.backlog = n - int(received.Load())
		}()
		go func() { // reader
			defer wg.Done()
			for k := 0; k < n; k++ {
				u := st.units[k%len(st.units)]
				if err := lc.readUnit(st, u, &r.tally); err != nil {
					errs[2*ci+1] = fmt.Errorf("open loop receive %d: %w", k, err)
					return
				}
				r.lat[k] = nanotime() - (start + int64(k)*int64(interval))
				received.Add(1)
			}
		}()
	}
	wg.Wait()
	total := openResult{sent: n * len(conns), duration: time.Duration(n) * interval}
	for ci := range res {
		total.tally.add(res[ci].tally)
		total.lat = append(total.lat, res[ci].lat...)
		total.lag = append(total.lag, res[ci].lag...)
		total.backlog += res[ci].backlog
		if err := conns[ci].c.SetDeadline(time.Time{}); err != nil && errs[2*ci] == nil {
			errs[2*ci] = err
		}
	}
	return total, errors.Join(errs...)
}

// sleepUntil returns at the monotonic instant due, to within a few
// tens of microseconds. time.Sleep will not do for an open loop whose
// requests are 100 µs apart: the Go runtime's timers fire from the
// network poller, whose timeout is in whole milliseconds, so a 100 µs
// sleep takes a millisecond and the generator's own lateness would be
// most of every latency it reported. nanosleep(2) blocks the thread on
// a high-resolution kernel timer instead; the last stretch is spun,
// yielding to the reader goroutines.
func sleepUntil(due int64) {
	const spin = 20_000 // ns
	for {
		wait := due - nanotime()
		switch {
		case wait <= 0:
			return
		case wait > spin:
			ts := syscall.NsecToTimespec(wait - spin)
			_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop looks at the clock again
		default:
			runtime.Gosched()
		}
	}
}

// adminConn is the untimed control client.
type adminConn struct {
	c net.Conn
	r *resp.Reader
	w *resp.Writer
}

func dialAdmin(addr string) (*adminConn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &adminConn{c: c, r: resp.NewReader(c), w: resp.NewWriter(c)}, nil
}

func (a *adminConn) Close() error { return a.c.Close() }

func (a *adminConn) send(args ...string) {
	a.w.Array(len(args))
	for _, s := range args {
		a.w.Bulk(s)
	}
}

// do sends one command and reads its reply; an error reply is an error.
func (a *adminConn) do(args ...string) (resp.Value, error) {
	a.send(args...)
	if err := a.w.Flush(); err != nil {
		return resp.Value{}, fmt.Errorf("%s: %w", args[0], err)
	}
	v, err := a.r.ReadReply()
	if err != nil {
		return resp.Value{}, fmt.Errorf("%s: %w", args[0], err)
	}
	if v.IsError() {
		return v, fmt.Errorf("%s: server error %q", args[0], v.Str)
	}
	return v, nil
}
