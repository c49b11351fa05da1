package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"time"

	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/kv"
	"repro/internal/resp"
	"repro/internal/stm"
	"repro/internal/wal"
)

// This file is part (B) of the traced run: the ladder. The first
// operations of the workload's own request stream are fed,
// single-goroutine and in-process, through each layer's public API on a
// store preloaded like the server's, the benchmark recording one span
// around each call. Rungs nest —
//
//	os.loopback ⊃ kvserver.pipe ⊃ { resp.decode, kv.op, resp.encode }
//	kv.op ⊃ container.* ⊃ stm.*
//
// — so a layer's self time is its rung minus the rungs it contains.
// The spans are taken from outside, by timing calls into public
// functions; spans inside the program are a later issue.

// rung is one layer's spans: span i is request i's pass through the
// layer. Kept columnar and in memory; written out when the run ends.
type rung struct {
	Name   string  `json:"name"`
	Parent string  `json:"parent"` // the rung whose span of the same request contains this one
	Ops    int64   `json:"ops"`    // workload operations the spans cover
	Start  []int64 `json:"start_ns"`
	End    []int64 `json:"end_ns"`
	// Allocations over the whole rung (runtime.MemStats deltas).
	Mallocs uint64 `json:"mallocs"`
	Bytes   uint64 `json:"bytes"`

	mallocs0, bytes0 uint64 // the allocator's counters when the rung began
	last             int64
}

type tracer struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Note     string  `json:"note"`
	Rungs    []*rung `json:"rungs"`
}

// begin opens a rung of n spans covering ops workload operations.
// Spans are back to back: the clock read that ends span i starts span
// i+1, so a span costs one clock read, not two.
func (t *tracer) begin(name, parent string, n int, ops int64) *rung {
	r := &rung{Name: name, Parent: parent, Ops: ops, Start: make([]int64, 0, n), End: make([]int64, 0, n)}
	t.Rungs = append(t.Rungs, r)
	runtime.GC() // each rung pays for its own garbage, not its predecessor's
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.mallocs0, r.bytes0 = m.Mallocs, m.TotalAlloc
	r.last = nanotime()
	return r
}

// lap closes the current span.
func (r *rung) lap() {
	now := nanotime()
	r.Start = append(r.Start, r.last)
	r.End = append(r.End, now)
	r.last = now
}

// end closes the rung's allocation account.
func (r *rung) end() {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.Mallocs, r.Bytes = m.Mallocs-r.mallocs0, m.TotalAlloc-r.bytes0
}

// perSpan is how many workload operations one span covers.
func (r *rung) perSpan() float64 { return float64(max(r.Ops, 1)) / float64(max(len(r.End), 1)) }

// nsOp is the rung's cost per operation: the median span, not the
// mean. A shard that recounts itself or a collector cycle lands in a
// few spans and costs them milliseconds; the mean would report mostly
// how many of those the pass happened to meet (6× apart between two
// runs of one commit, measured), the median reports what a request
// pays. The rare expensive spans are in the trace file, and their cost
// is in the end-to-end numbers.
func (r *rung) nsOp() float64 {
	d := make([]int64, len(r.End))
	for i := range d {
		d[i] = r.End[i] - r.Start[i]
	}
	slices.Sort(d)
	return float64(quantile(d, 0.5)) / r.perSpan()
}

// selfNsOp is the median over requests of this rung's span minus the
// spans of the same request in the rungs it contains: self time, taken
// request by request so that a stall in one pass is not subtracted from
// another pass's quiet span.
func (r *rung) selfNsOp(inner ...*rung) float64 {
	d := make([]int64, len(r.End))
	for i := range d {
		d[i] = r.End[i] - r.Start[i]
		for _, in := range inner {
			d[i] -= in.End[i] - in.Start[i]
		}
	}
	slices.Sort(d)
	return float64(quantile(d, 0.5)) / r.perSpan()
}

func (r *rung) allocsOp() float64 { return float64(r.Mallocs) / float64(max(r.Ops, 1)) }
func (r *rung) bytesOp() float64  { return float64(r.Bytes) / float64(max(r.Ops, 1)) }

func (t *tracer) write(path string) error {
	t.Note = "span i of a rung is request i; a rung's parent is the rung whose span of the same request contains it; times are ns since process start"
	b, err := json.Marshal(t)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// memConn is a connection with no peer and no kernel: the whole
// request stream is there to be read from the first Read, replies are
// appended to a buffer, and the end of the stream is a clean EOF. The
// handler loop runs flat out, so the rung prices the handler and
// nothing else. (net.Pipe would not do: its rendezvous costs two
// goroutine hand-offs per message, which the subtraction would charge
// to kvserver.) onWrite is called after every Write — the server
// flushes once per reply — which is how spans are cut from outside.
type memConn struct {
	in      *bytes.Reader
	out     []byte
	onWrite func()
	closed  chan struct{}
}

func (c *memConn) Read(p []byte) (int, error) { return c.in.Read(p) }

func (c *memConn) Write(p []byte) (int, error) {
	c.out = append(c.out, p...)
	c.onWrite()
	return len(p), nil
}

func (c *memConn) Close() error                     { close(c.closed); return nil }
func (c *memConn) LocalAddr() net.Addr              { return memAddr{} }
func (c *memConn) RemoteAddr() net.Addr             { return memAddr{} }
func (c *memConn) SetDeadline(time.Time) error      { return nil }
func (c *memConn) SetReadDeadline(time.Time) error  { return nil }
func (c *memConn) SetWriteDeadline(time.Time) error { return nil }

type memAddr struct{}

func (memAddr) Network() string { return "mem" }
func (memAddr) String() string  { return "mem" }

// memListener hands the server the connections it is given.
type memListener struct {
	conns chan net.Conn
	done  chan struct{}
}

func newMemListener() *memListener {
	return &memListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *memListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *memListener) Close() error   { close(l.done); return nil }
func (l *memListener) Addr() net.Addr { return memAddr{} }

// ladder holds what the rungs share.
type ladder struct {
	cfg   config
	sp    spec
	tr    *tracer
	st    *stream
	units []unit // the stream prefix every rung replays
	ops   int64
	store *kv.Store
	args  [][][]string   // decoded commands, per unit
	reps  [][]resp.Value // recorded replies, per unit
}

// newSTM is an engine arbitrated by the greedy manager, stmkv's default.
func newSTM() (*stm.STM, error) {
	factory, err := core.Factory("greedy")
	if err != nil {
		return nil, err
	}
	return stm.New(stm.WithManagerFactory(factory)), nil
}

// newStore is the store the issue names, and the one stmkv builds by
// default: default shards and buckets, the greedy manager.
func newStore() (*kv.Store, error) {
	s, err := newSTM()
	if err != nil {
		return nil, err
	}
	return kv.New(s), nil
}

// runLadder measures every in-process rung and sets the metrics they
// yield.
func runLadder(cfg config, sp spec, st *stream, rep *report, tr *tracer) error {
	l := &ladder{cfg: cfg, sp: sp, tr: tr, st: st}
	per := opsPerUnit(sp)
	for _, u := range st.units {
		if l.ops >= int64(cfg.ladderOps) {
			break
		}
		l.units = append(l.units, u)
		l.ops += per(u)
	}

	// The store, preloaded like the server's, and its footprint: heap
	// growth across preload, after a collection on either side.
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	store, err := newStore()
	if err != nil {
		return err
	}
	pop, err := preload(storeLoader{store}, sp, cfg.seed)
	if err != nil {
		return err
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	l.store = store
	rep.set("kv.heap_bytes_per_key", float64(int64(m1.HeapAlloc)-int64(m0.HeapAlloc))/float64(max(pop.items, 1)))

	decode, err := l.decodeRung()
	if err != nil {
		return err
	}
	kvop, err := l.kvRung()
	if err != nil {
		return err
	}
	pipe, err := l.pipeRung()
	if err != nil {
		return err
	}
	encode, err := l.encodeRung()
	if err != nil {
		return err
	}
	loop, err := l.loopbackRung()
	if err != nil {
		return err
	}
	rep.set("resp.decode_ns_op", decode.nsOp())
	rep.set("resp.decode_allocs_op", decode.allocsOp())
	rep.set("resp.decode_bytes_op", decode.bytesOp())
	rep.set("resp.encode_ns_op", encode.nsOp())
	rep.set("resp.encode_allocs_op", encode.allocsOp())
	rep.set("resp.encode_bytes_op", encode.bytesOp())
	rep.set("kv.op_ns_op", kvop.nsOp())
	rep.set("kv.op_allocs_op", kvop.allocsOp())
	rep.set("kv.op_bytes_op", kvop.bytesOp())
	rep.set("kvserver.pipe_ns_op", pipe.nsOp())
	rep.set("kvserver.pipe_allocs_op", pipe.allocsOp())
	rep.set("kvserver.self_ns_op", pipe.selfNsOp(decode, kvop, encode))
	rep.set("kvserver.self_allocs_op", pipe.allocsOp()-decode.allocsOp()-encode.allocsOp()-kvop.allocsOp())
	rep.set("os.socket_ns_op", loop.selfNsOp(pipe))
	fmt.Printf("info ladder: %d request units = %d ops per rung; median spans: loopback %.0f ns/op ⊃ pipe %.0f ⊃ decode %.0f + kv %.0f + encode %.0f\n",
		len(l.units), l.ops, loop.nsOp(), pipe.nsOp(), decode.nsOp(), kvop.nsOp(), encode.nsOp())

	// The store is done with; let the micro rungs run on a small heap.
	l.store = nil
	if err := l.containerRungs(rep); err != nil {
		return err
	}
	if err := l.stmRungs(rep); err != nil {
		return err
	}
	return l.walRungs(rep)
}

// decodeRung is resp.Reader.ReadCommand over the pre-encoded stream.
func (l *ladder) decodeRung() (*rung, error) {
	end := l.units[len(l.units)-1].end
	rd := resp.NewReader(bytes.NewReader(l.st.buf[:end]))
	l.args = make([][][]string, len(l.units))
	for i, u := range l.units {
		l.args[i] = make([][]string, 0, u.c1-u.c0)
	}
	r := l.tr.begin("resp.decode", "kvserver.pipe", len(l.units), l.ops)
	for i, u := range l.units {
		for k := u.c0; k < u.c1; k++ {
			args, err := rd.ReadCommand()
			if err != nil {
				return nil, fmt.Errorf("ladder decode: %w", err)
			}
			l.args[i] = append(l.args[i], args)
		}
		r.lap()
	}
	r.end()
	return r, nil
}

// txOp is one command of a MULTI block with its numbers already
// parsed, so the transaction body replays decisions made outside it.
type txOp struct {
	name       string
	key, a, b  string
	n          int64
	f          float64
	wantsFloat bool
}

func parseTxOp(args []string) (txOp, error) {
	op := txOp{name: args[0], key: args[1]}
	var err error
	switch op.name {
	case "INCRBY":
		op.n, err = strconv.ParseInt(args[2], 10, 64)
	case "HINCRBY":
		op.a = args[2]
		op.n, err = strconv.ParseInt(args[3], 10, 64)
	case "ZADD":
		op.a = args[3]
		op.f, err = strconv.ParseFloat(args[2], 64)
	case "RPUSH", "ZREM":
		op.a = args[2]
	case "LPOP":
	default:
		err = fmt.Errorf("ladder: no replay for %s inside MULTI", op.name)
	}
	return op, err
}

func applyTxOp(st *kv.Store, tx *stm.Tx, now int64, op *txOp) error {
	var err error
	switch op.name {
	case "INCRBY":
		_, err = st.IncrTx(tx, now, op.key, op.n)
	case "HINCRBY":
		_, err = st.HIncrTx(tx, now, op.key, op.a, op.n)
	case "ZADD":
		_, err = st.ZAddTx(tx, now, op.key, op.a, op.f)
	case "RPUSH":
		_, err = st.RPushTx(tx, now, op.key, op.a)
	case "ZREM":
		_, err = st.ZRemTx(tx, now, op.key, op.a)
	case "LPOP":
		_, _, err = st.LPopTx(tx, now, op.key)
	}
	return err
}

// kvRung replays the stream through the store's public API: the
// singleton methods for plain commands, Store.Atomically and the *Tx
// forms for MULTI blocks.
func (l *ladder) kvRung() (*rung, error) {
	st := l.store
	var block []txOp
	r := l.tr.begin("kv.op", "kvserver.pipe", len(l.units), l.ops)
	for _, cmds := range l.args {
		for _, args := range cmds {
			var err error
			switch args[0] {
			case "GET":
				_, _, err = st.Get(args[1])
			case "SET":
				if len(args) == 5 {
					var ms int64
					if ms, err = strconv.ParseInt(args[4], 10, 64); err == nil {
						err = st.SetTTL(args[1], args[2], time.Duration(ms)*time.Millisecond)
					}
				} else {
					err = st.Set(args[1], args[2])
				}
			case "INCR":
				_, err = st.Incr(args[1], 1)
			case "DEL":
				_, err = st.Del(args[1:]...)
			case "MGET":
				_, _, err = st.MGet(args[1:]...)
			case "MULTI":
				block = block[:0]
			case "EXEC":
				ops := block
				err = st.Atomically(func(tx *stm.Tx, now int64) error {
					for i := range ops {
						if err := applyTxOp(st, tx, now, &ops[i]); err != nil {
							return err
						}
					}
					return nil
				})
			default:
				var op txOp
				if op, err = parseTxOp(args); err == nil {
					block = append(block, op)
				}
			}
			if err != nil {
				return nil, fmt.Errorf("ladder kv.op %v: %w", args[0], err)
			}
		}
		r.lap()
	}
	r.end()
	return r, nil
}

// serve runs a kv.Server over ln for the duration of fn.
func (l *ladder) serve(ln net.Listener, fn func() error) error {
	srv := kv.NewServer(l.store)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	err := fn()
	return errors.Join(err, srv.Close(), <-done)
}

// pipeRung is the whole handler loop — kv.NewServer(...).Serve — over
// an in-memory connection, and keeps the replies it produced for the
// encode rung.
func (l *ladder) pipeRung() (*rung, error) {
	end := l.units[len(l.units)-1].end
	var r *rung
	// Span i closes when the last reply of request unit i is written.
	unit, left := 0, int(l.units[0].c1-l.units[0].c0)
	conn := &memConn{in: bytes.NewReader(l.st.buf[:end]), out: make([]byte, 0, 2*int(end)), closed: make(chan struct{})}
	conn.onWrite = func() {
		if left--; left == 0 {
			r.lap()
			if unit++; unit < len(l.units) {
				left = int(l.units[unit].c1 - l.units[unit].c0)
			}
		}
	}
	ln := newMemListener()
	err := l.serve(ln, func() error {
		r = l.tr.begin("kvserver.pipe", "os.loopback", len(l.units), l.ops)
		ln.conns <- conn
		<-conn.closed // the handler saw EOF and hung up
		r.end()
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(r.End) != len(l.units) {
		return nil, fmt.Errorf("ladder kvserver.pipe: %d of %d request units answered", len(r.End), len(l.units))
	}
	rd := resp.NewReader(bytes.NewReader(conn.out))
	l.reps = make([][]resp.Value, len(l.units))
	for i, u := range l.units {
		for k := u.c0; k < u.c1; k++ {
			v, err := rd.ReadReply()
			if err != nil {
				return nil, fmt.Errorf("ladder kvserver.pipe reply: %w", err)
			}
			if want := &l.st.cmds[k]; v.Kind != want.kind || (v.Kind == '*' && len(v.Elems) != int(want.arity)) {
				return nil, fmt.Errorf("ladder kvserver.pipe: reply %d is %q, want %q", k, v.Kind, want.kind)
			}
			l.reps[i] = append(l.reps[i], v)
		}
	}
	return r, nil
}

// encodeRung is Writer.Value + Flush of the recorded replies.
func (l *ladder) encodeRung() (*rung, error) {
	w := resp.NewWriter(io.Discard)
	r := l.tr.begin("resp.encode", "kvserver.pipe", len(l.units), l.ops)
	for _, reps := range l.reps {
		for _, v := range reps {
			w.Value(v)
			if err := w.Flush(); err != nil {
				return nil, err
			}
		}
		r.lap()
	}
	r.end()
	return r, nil
}

// loopbackRung is the same handler loop driven closed-loop by one
// client over loopback TCP: the in-memory rung plus everything a socket
// adds — system calls, wake-ups, the client itself.
func (l *ladder) loopbackRung() (*rung, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var r *rung
	err = l.serve(ln, func() error {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return err
		}
		defer c.Close()
		lc := newLoadConn(c)
		var t tally
		r = l.tr.begin("os.loopback", "", len(l.units), l.ops)
		for _, u := range l.units {
			if _, err := c.Write(l.st.buf[u.off:u.end]); err != nil {
				return err
			}
			if err := lc.readUnit(l.st, u, &t); err != nil {
				return fmt.Errorf("ladder os.loopback: %w", err)
			}
			r.lap()
		}
		r.end()
		if t.failed > 0 {
			return fmt.Errorf("ladder os.loopback: %d of %d replies were wrong", t.failed, t.attempted)
		}
		return nil
	})
	return r, err
}

// micro runs one micro rung: n calls of fn, one span each.
func (l *ladder) micro(name, parent string, n int, fn func(i int) error) (*rung, error) {
	r := l.tr.begin(name, parent, n, int64(n))
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return nil, fmt.Errorf("ladder %s: %w", name, err)
		}
		r.lap()
	}
	r.end()
	return r, nil
}

// containerRungs times the container operations under kv.op, on
// structures sized like the workload's: a shard-sized bucket table, a
// list as long as the pending backlog, an ordered map the size of the
// active set.
func (l *ladder) containerRungs(rep *report) error {
	s, err := newSTM()
	if err != nil {
		return err
	}
	n := l.cfg.ladderOps

	// A shard's table at the store's load factor: the server spreads its
	// keys over 16 shards and grows a shard past two entries per bucket.
	buckets := max((l.sp.strKeys+l.sp.counters)/16/2, 8)
	table := container.NewTable[int](buckets)
	lookup, err := l.micro("container.table_lookup", "kv.op", n, func(i int) error {
		return s.Atomically(func(tx *stm.Tx) error {
			b, err := table.Buckets(tx)
			if err != nil {
				return err
			}
			_, err = stm.Read(tx, b.At(i*7919%b.Len()))
			return err
		})
	})
	if err != nil {
		return err
	}

	deque := container.NewDeque[string]()
	for i := 0; i < max(l.sp.backlog, preloadBatch); i += preloadBatch {
		err := s.Atomically(func(tx *stm.Tx) error {
			for j := 0; j < preloadBatch; j++ {
				if err := deque.PushBack(tx, "job"); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	pushpop, err := l.micro("container.deque_pushpop", "kv.op", n, func(int) error {
		return s.Atomically(func(tx *stm.Tx) error {
			if err := deque.PushBack(tx, "job"); err != nil {
				return err
			}
			_, _, err := deque.PopFront(tx)
			return err
		})
	})
	if err != nil {
		return err
	}

	// Twice as many names as the map will hold at first, so puts are a
	// mix of splicing a new tower and updating one in place.
	const omapKeys = 1024
	names := make([]string, 2*omapKeys)
	for i := range names {
		names[i] = "member:" + strconv.Itoa(i*7919%len(names))
	}
	omap := container.NewOMap[string, string]()
	for _, name := range names[:omapKeys] {
		err := s.Atomically(func(tx *stm.Tx) error {
			_, _, err := omap.Put(tx, name, name)
			return err
		})
		if err != nil {
			return err
		}
	}
	put, err := l.micro("container.omap_put", "kv.op", n, func(i int) error {
		name := names[i%len(names)]
		return s.Atomically(func(tx *stm.Tx) error {
			_, _, err := omap.Put(tx, name, name)
			return err
		})
	})
	if err != nil {
		return err
	}
	get, err := l.micro("container.omap_get", "kv.op", n, func(i int) error {
		name := names[i%len(names)]
		return s.Atomically(func(tx *stm.Tx) error {
			_, _, err := omap.Get(tx, name)
			return err
		})
	})
	if err != nil {
		return err
	}
	for name, r := range map[string]*rung{"table_lookup": lookup, "deque_pushpop": pushpop, "omap_put": put, "omap_get": get} {
		rep.set("container."+name+"_ns_op", r.nsOp())
		rep.set("container."+name+"_allocs_op", r.allocsOp())
	}
	return nil
}

// stmRungs times bare transactions: what every container operation is
// made of.
func (l *ladder) stmRungs(rep *report) error {
	s, err := newSTM()
	if err != nil {
		return err
	}
	n := l.cfg.ladderOps
	vars := make([]*stm.Var[int64], 16)
	for i := range vars {
		vars[i] = stm.NewVar(int64(1000))
	}
	read, err := l.micro("stm.read", "container.table_lookup", n, func(i int) error {
		return s.Atomically(func(tx *stm.Tx) error {
			_, err := stm.Read(tx, vars[i%len(vars)])
			return err
		})
	})
	if err != nil {
		return err
	}
	// A 16-variable read-only transaction: what validation costs as the
	// read set grows.
	read16, err := l.micro("stm.read16", "container.table_lookup", n, func(int) error {
		return s.Atomically(func(tx *stm.Tx) error {
			for _, v := range vars {
				if _, err := stm.Read(tx, v); err != nil {
					return err
				}
			}
			return nil
		})
	})
	if err != nil {
		return err
	}
	update, err := l.micro("stm.update", "container.deque_pushpop", n, func(i int) error {
		return s.Atomically(func(tx *stm.Tx) error {
			return stm.Update(tx, vars[i%len(vars)], func(x int64) int64 { return x + 1 })
		})
	})
	if err != nil {
		return err
	}
	update2, err := l.micro("stm.update2", "container.deque_pushpop", n, func(i int) error {
		from, to := vars[i%len(vars)], vars[(i+1)%len(vars)]
		return s.Atomically(func(tx *stm.Tx) error {
			if err := stm.Update(tx, from, func(x int64) int64 { return x - 1 }); err != nil {
				return err
			}
			return stm.Update(tx, to, func(x int64) int64 { return x + 1 })
		})
	})
	if err != nil {
		return err
	}
	rep.set("stm.read_ns_op", read.nsOp())
	rep.set("stm.read16_ns_op", read16.nsOp())
	rep.set("stm.update_ns_op", update.nsOp())
	rep.set("stm.update_allocs_op", update.allocsOp())
	rep.set("stm.update2_ns_op", update2.nsOp())
	return nil
}

// walOps turns the stream's write commands into the records the store
// would log for them — one record per transaction: a plain command is
// its own, a MULTI block's ops share one — so the log rungs append what
// the workload writes.
func (l *ladder) walOps() [][]wal.Op {
	var recs [][]wal.Op
	var block []wal.Op
	inBlock := false
	for _, cmds := range l.args {
		for _, args := range cmds {
			var op wal.Op
			switch args[0] {
			case "MULTI":
				inBlock = true
				continue
			case "EXEC":
				recs, block, inBlock = append(recs, block), nil, false
				continue
			case "SET":
				op = wal.Op{Key: args[1], Val: args[2]}
			case "DEL":
				op = wal.Op{Key: args[1], Del: true}
			case "INCR", "INCRBY":
				op = wal.Op{Key: args[1], Val: "1000000"}
			case "HINCRBY":
				op = wal.Op{Kind: wal.KindHash, Key: args[1], Field: args[2], Val: "1000000"}
			case "RPUSH":
				op = wal.Op{Kind: wal.KindList, Key: args[1], Val: args[2]}
			case "LPOP":
				op = wal.Op{Kind: wal.KindList, Key: args[1], Del: true, Front: true}
			case "ZADD":
				op = wal.Op{Kind: wal.KindZSet, Key: args[1], Field: args[3], Val: args[2]}
			case "ZREM":
				op = wal.Op{Kind: wal.KindZSet, Key: args[1], Field: args[2], Del: true}
			default: // reads log nothing
				continue
			}
			if inBlock {
				block = append(block, op)
			} else {
				recs = append(recs, []wal.Op{op})
			}
		}
	}
	return recs
}

// walRungs times the log on its own, in a scratch directory next to
// the data directories: a synchronous append (Append + Ticket.Wait,
// one goroutine, so one fsync each — the ceiling on what an
// unpipelined durable command can cost), the asynchronous enqueue, and
// recovery of what was appended.
func (l *ladder) walRungs(rep *report) error {
	recs := l.walOps()
	if len(recs) == 0 {
		return errors.New("ladder: the stream has no writes to log")
	}
	dir, err := os.MkdirTemp(l.cfg.outDir, "data-wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	log, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return err
	}
	// A synchronous append is a millisecond, not a microsecond: a
	// hundredth of the other rungs' count keeps the rung under a second.
	nSync := max(l.cfg.ladderOps/100, 20)
	appendSync, err := l.micro("wal.append_sync", "", nSync, func(i int) error {
		return log.Append(recs[i%len(recs)]).Wait()
	})
	if err != nil {
		log.Close()
		return err
	}
	nAsync := l.cfg.ladderOps
	appendAsync, err := l.micro("wal.append_async", "wal.append_sync", nAsync, func(i int) error {
		// AppendAsync keeps the slice; the records are never mutated, so
		// handing the same one over twice is safe.
		log.AppendAsync(recs[i%len(recs)])
		return nil
	})
	if err != nil {
		log.Close()
		return err
	}
	if err := log.Close(); err != nil {
		return fmt.Errorf("ladder wal close: %w", err)
	}
	var replayed int
	replay, err := l.micro("wal.recover", "", 1, func(int) error {
		_, err := wal.Recover(dir, func(ops []wal.Op) error { replayed++; return nil })
		return err
	})
	if err != nil {
		return err
	}
	if replayed != nSync+nAsync {
		return fmt.Errorf("ladder wal: recovered %d records of %d appended", replayed, nSync+nAsync)
	}
	rep.set("wal.append_sync_ns_op", appendSync.nsOp())
	rep.set("wal.append_async_ns_op", appendAsync.nsOp())
	rep.set("wal.append_async_allocs_op", appendAsync.allocsOp())
	rep.set("wal.recover_ns_op", replay.nsOp()/float64(replayed))
	return nil
}

func tracePath(cfg config) string {
	return filepath.Join(cfg.outDir, cfg.workload+".trace.json")
}
