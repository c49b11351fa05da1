package kv

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/resp"
	"repro/internal/stm"
	"repro/internal/wal"
)

// Server speaks the RESP-lite protocol over TCP, one goroutine per
// connection — and therefore one pooled STM session per in-flight
// command, the execution model PR 2's goroutine-agnostic API was built
// for. Singleton commands run as single atomic transactions;
// MULTI/EXEC queues commands client-side and replays the block inside
// one transaction, so a cross-key transfer serializes against every
// concurrent singleton operation and shard resize.
//
// Deviation from Redis worth knowing: EXEC is all-or-nothing. A
// command that fails inside the block (INCR on a non-integer value)
// aborts the whole transaction and EXEC reports EXECABORT, where Redis
// would run the remaining commands and inline the error — atomicity is
// the point of running on an STM, so the stricter semantics is kept.
type Server struct {
	store *Store

	// Observability state (see info.go, abortlog.go): the metrics
	// registry, the per-command instruments, the SLOWLOG and ABORTLOG
	// rings, and the labels INFO reports.
	reg         *obs.Registry
	sm          *serverMetrics
	slow        *slowlog
	abort       *AbortLog
	managerName string
	started     time.Time

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
	// ctx ends at Close: it stops a SAVE or BGSAVE between two chunks
	// (background saves are in wg, so Close waits them out).
	ctx  context.Context
	stop context.CancelFunc
}

// NewServer returns a server for the store. It keeps its metrics in
// a registry of its own (see Registry), which INFO reads and an HTTP
// listener may serve.
func NewServer(store *Store, opts ...ServerOption) *Server {
	srv := &Server{
		store:       store,
		reg:         obs.NewRegistry(),
		conns:       make(map[net.Conn]struct{}),
		managerName: "default",
		started:     time.Now(),
		slow:        &slowlog{threshold: 10 * time.Millisecond, ring: newRing[slowEntry](128)},
		// A private ring by default, replaced by WithAbortLog when
		// cmd/stmkv installs one on the engine; without the option
		// ABORTLOG answers but never fills.
		abort: NewAbortLog(128),
	}
	srv.ctx, srv.stop = context.WithCancel(context.Background())
	for _, opt := range opts {
		opt(srv)
	}
	srv.sm = newServerMetrics(srv.reg)
	registerStoreMetrics(srv.reg, store, srv.managerName)
	return srv
}

// Serve accepts connections on ln until Close. It returns nil after a
// clean shutdown, or the first accept error otherwise.
func (srv *Server) Serve(ln net.Listener) error {
	srv.mu.Lock()
	if srv.closed {
		srv.mu.Unlock()
		ln.Close()
		return errors.New("kv: server already closed")
	}
	srv.ln = ln
	srv.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			srv.mu.Lock()
			closed := srv.closed
			srv.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		srv.mu.Lock()
		if srv.closed {
			srv.mu.Unlock()
			conn.Close()
			return nil
		}
		srv.conns[conn] = struct{}{}
		srv.wg.Add(1)
		srv.mu.Unlock()
		go srv.handle(conn)
	}
}

// Close stops accepting, closes every live connection and waits for
// their handlers to drain — the clean-shutdown contract the smoke mode
// asserts.
func (srv *Server) Close() error {
	srv.mu.Lock()
	if srv.closed {
		srv.mu.Unlock()
		return nil
	}
	srv.closed = true
	srv.stop()
	ln := srv.ln
	for conn := range srv.conns {
		conn.Close()
	}
	srv.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	srv.wg.Wait()
	return err
}

// drop unregisters and closes a finished connection.
func (srv *Server) drop(conn net.Conn) {
	srv.mu.Lock()
	delete(srv.conns, conn)
	srv.mu.Unlock()
	conn.Close()
	srv.wg.Done()
}

// connState is one connection's protocol state: the MULTI block being
// queued, and what the request in flight cost and is still owed.
type connState struct {
	multi bool        // inside MULTI
	dirty bool        // a queue-time error poisoned the block: EXEC will refuse it
	queue []queuedCmd // the block's commands, validated and parsed
	quit  bool        // hang up once every reply is released
	// cost is what the current request's transaction cost the engine;
	// zero for requests that ran none.
	cost txCost
	// owed is the durability the current request's transaction still
	// waits for; zero for requests that logged nothing.
	owed pending
}

// queuedCmd is one command of a MULTI block, held with its arguments
// already parsed so EXEC only runs bodies.
type queuedCmd struct {
	cmd *command
	a   args
}

// endMulti leaves MULTI state, dropping the block.
func (c *connState) endMulti() {
	c.multi, c.dirty, c.queue = false, false, c.queue[:0]
}

// replyWindow bounds how many executed requests one connection may hold
// back waiting for their log records: a client that pipelines without
// reading stalls here instead of growing the server's memory. It is
// several times what a handler executes during one fsync, so the bound
// is not what ends a lone connection's batch.
const replyWindow = 128

// heldReply is one executed request whose reply has not been released:
// the reply, the durability it waits for, and what observe will need
// when it goes out.
type heldReply struct {
	reply resp.Value
	owed  pending
	cmd   *command
	start time.Duration // a metrics.Mono reading
	argv  []string
	cost  txCost
}

// maxHeldArgs bounds the argv backing a window slot keeps for its next
// request: one that a long command grew is let go.
const maxHeldArgs = 16

// keepArgs appends to dst copies of args that outlive the next read:
// the handler reuses its argv slice for every request, and a borrowing
// command's strings view the reader's arena, so they are cloned too
// when borrowed is set.
func keepArgs(dst, args []string, borrowed bool) []string {
	start := len(dst)
	dst = append(dst, args...)
	if borrowed {
		for i := start; i < len(dst); i++ {
			dst[i] = strings.Clone(dst[i])
		}
	}
	return dst
}

// replyBatchCap is the size at which a batch of released replies goes
// out without waiting for the handler to block: large enough that a
// read buffer's worth of pipelined replies is one send, small enough
// that a connection's idle buffer stays small.
const replyBatchCap = 64 << 10

// maxBatchReplies is the most replies one writev(2) takes (IOV_MAX), so
// a batch that reaches it is sent at once: a longer one would cost as
// many system calls and hold more slice headers.
const maxBatchReplies = 1024

// outbox is one connection's reply path: the in-order window of
// executed requests whose replies wait for a log record, and the batch
// of replies released and not yet sent.
//
// The durability wait is a property of the reply, not of the command:
// the handler executes the frames already in its read buffer back to
// back, each write committing in memory and enqueueing its record, and
// a reply is released — observed and encoded into the batch — only
// once its own record and every earlier reply's are on disk. So a
// connection's pipelined writes ride one group commit instead of one
// each. The handler blocks on the head of the window in two places
// only: before a socket read (Read below), and when the window is full.
//
// The batch goes to the socket whenever the handler is about to block —
// before a socket read, before waiting on a record not yet on disk
// (which covers the full window), at hang-up — and once it reaches
// replyBatchCap or maxBatchReplies. So no released reply sits in the
// batch while the handler sleeps, and sixteen pipelined GETs cost one
// write(2), not sixteen.
type outbox struct {
	srv  *Server
	conn net.Conn
	// win is a ring of replyWindow slots, allocated by the first reply
	// that has to be held: a memory-only server never does.
	win     []heldReply
	head, n int
	// batch holds the encoded replies released since the last send, and
	// vec the same bytes cut into one buffer per reply; send is the copy
	// of vec that WriteTo consumes, a field so that a send allocates
	// nothing.
	batch     []byte
	vec, send net.Buffers
}

// Read is the source the connection's resp.Reader fills its buffer
// from. The window is settled and the batch sent before every socket
// read, the one place the handler sleeps with requests executed:
// whatever the peer does next — send the rest of a half-received frame,
// wait for its replies, nothing — no reply is held hostage to it.
func (out *outbox) Read(p []byte) (int, error) {
	if err := out.drain(); err != nil {
		return 0, err
	}
	return out.conn.Read(p)
}

// drain releases every held reply, waiting for their records, and sends
// the batch.
func (out *outbox) drain() error {
	if err := out.settle(true); err != nil {
		return err
	}
	return out.flush()
}

// reply takes an executed request's reply: straight out when nothing is
// held ahead of it and it waits for nothing — every reply of a
// memory-only server — and into the window otherwise, releasing from
// the head whatever has been acked meanwhile.
func (out *outbox) reply(h heldReply) error {
	if out.n == 0 && h.owed.ready() {
		return out.release(&h)
	}
	if out.win == nil {
		out.win = make([]heldReply, replyWindow)
	}
	if out.n == replyWindow {
		if err := out.releaseHead(); err != nil {
			return err
		}
	}
	// The slot keeps the request's arguments in a backing of its own
	// until the reply is released and observed.
	slot := &out.win[(out.head+out.n)%replyWindow]
	argv := keepArgs(slot.argv[:0], h.argv, h.cmd != nil && h.cmd.borrow)
	*slot = h
	slot.argv = argv
	out.n++
	return out.settle(false)
}

// settle releases held replies in order: all of them, sleeping on each
// record in turn, when block is set; otherwise up to the first whose
// record is not yet on disk. Waiting on the head alone loses nothing:
// one connection's commits get their LSNs in the order it executed them,
// and a ticket is done when the log's one durable watermark has reached
// its LSN (see wal.Ticket).
func (out *outbox) settle(block bool) error {
	for out.n > 0 && (block || out.win[out.head].owed.ready()) {
		if err := out.releaseHead(); err != nil {
			return err
		}
	}
	return nil
}

// releaseHead releases the oldest held reply, waiting for its record.
func (out *outbox) releaseHead() error {
	h := &out.win[out.head]
	err := out.release(h)
	argv := h.argv
	if clear(argv); cap(argv) > maxHeldArgs {
		argv = nil
	}
	*h = heldReply{argv: argv[:0]}
	out.head = (out.head + 1) % replyWindow
	out.n--
	if err != nil {
		// The peer is gone: nothing can be told about the requests still held.
		clear(out.win)
		out.head, out.n = 0, 0
	}
	return err
}

// release waits out what the request is owed — sending the batch first
// if that means sleeping — then observes its reply and adds it to the
// batch. If the log failed, the client is told so instead: the write
// stands in memory but cannot be promised to survive a restart.
func (out *outbox) release(h *heldReply) error {
	if !h.owed.ready() {
		if err := out.flush(); err != nil {
			return err
		}
	}
	if err := h.owed.wait(); err != nil {
		h.reply = commandError(err)
	}
	if h.cmd != nil {
		out.srv.observe(h.cmd, h.start, h.argv, h.reply, h.cost)
	}
	return out.add(h.reply)
}

// add encodes a released reply into the batch, and sends the batch once
// it is full.
func (out *outbox) add(v resp.Value) error {
	start := len(out.batch)
	b, err := resp.AppendValue(out.batch, v)
	if err != nil {
		return err
	}
	// A reply's buffer stays valid when a later append moves the batch:
	// it keeps the array it was encoded into.
	out.batch, out.vec = b, append(out.vec, b[start:])
	if len(out.batch) >= replyBatchCap || len(out.vec) == maxBatchReplies {
		return out.flush()
	}
	return nil
}

// flush sends the batch as one buffer per reply: a *net.TCPConn takes
// them in one writev(2), any other writer gets one Write per reply. A
// batch buffer an oversized reply grew is let go.
func (out *outbox) flush() error {
	if len(out.vec) == 0 {
		return nil
	}
	out.srv.sm.replyFlushes.Inc()
	out.send = out.vec
	_, err := out.send.WriteTo(out.conn)
	clear(out.vec)
	out.vec, out.batch = out.vec[:0], out.batch[:0]
	if cap(out.batch) > 2*replyBatchCap {
		out.batch = nil
	}
	return err
}

// handle runs one connection's command loop. Every request takes the
// same path: table lookup, arity check, parse, then — by MULTI state
// and the command's flags — queue, reject or run, and the reply goes to
// the connection's outbox. A command that fails validation inside MULTI
// poisons the block (Redis-style), so EXEC replays only well-formed
// commands, inside one atomic transaction.
func (srv *Server) handle(conn net.Conn) {
	defer srv.drop(conn)
	srv.sm.connections.Inc()
	srv.sm.clients.Add(1)
	defer srv.sm.clients.Add(-1)
	out := &outbox{srv: srv, conn: conn}
	r := resp.NewReader(out)
	var (
		c    connState
		a    args
		argv []string
		err  error
	)
	for !c.quit {
		// argv is the connection's, reused for every request; a known
		// command's name in it is the table's string, and every other
		// argument views the reader's arena until the next read.
		argv, err = r.ReadArgs(argv, internName)
		if err != nil {
			// The frames before the bad one were executed; their replies
			// come first.
			if out.settle(true) == nil && resp.IsProtoError(err) {
				// Tell the peer why before hanging up.
				_ = out.add(resp.ErrVal("ERR protocol error: " + err.Error()))
			}
			_ = out.flush() // hanging up either way
			return
		}
		if len(argv) == 0 {
			// An empty array frame (*0) is a syntactically valid
			// non-command; answering beats crashing the handler.
			// It is no command, so nothing is observed for it (nil cmd).
			if out.reply(heldReply{reply: resp.ErrVal("ERR empty command")}) != nil {
				return
			}
			continue
		}
		start := metrics.Mono()
		cmd := lookupCommand(argv[0])
		if !cmd.borrow {
			// The command may keep its arguments — as a stored key or
			// value, in a MULTI block, in a reply that echoes one — so
			// they are cloned out of the arena before anything sees them.
			for i := 1; i < len(argv); i++ {
				argv[i] = strings.Clone(argv[i])
			}
		}
		if cmd == unknownCommand {
			// The upper-cased spelling is the name the error reply echoes
			// and the one SLOWLOG records.
			argv[0] = strings.ToUpper(strings.Clone(argv[0]))
		}
		a = args{s: argv[1:]}
		c.cost, c.owed = txCost{}, pending{}
		var invalid error
		switch {
		case cmd == unknownCommand:
			invalid = fmt.Errorf("ERR unknown command '%s'", argv[0])
		case !cmd.arityOK(len(a.s)):
			invalid = cmd.arityErr
		case cmd.parse != nil:
			invalid = cmd.parse(&a)
		}
		var reply resp.Value
		switch {
		case invalid != nil:
			if c.multi {
				c.dirty = true
			}
			reply = resp.ErrVal(invalid.Error())
		case c.multi && cmd.noMulti:
			c.dirty = true
			reply = resp.ErrVal("ERR " + cmd.name + " inside MULTI is not supported")
		case cmd.ctl != nil:
			reply = cmd.ctl(srv, &c, &a)
		case c.multi:
			a.s = keepArgs(nil, a.s, cmd.borrow)
			c.queue = append(c.queue, queuedCmd{cmd, a})
			reply = resp.SimpleVal("QUEUED")
		default:
			reply = srv.runSingle(&c, cmd, &a)
		}
		if out.reply(heldReply{reply, c.owed, cmd, start, argv, c.cost}) != nil {
			return
		}
	}
	// QUIT: its +OK, and every reply before it, goes out before the hang-up.
	_ = out.drain() // hanging up either way
}

// txCost is what one transactional command cost in engine terms:
// attempts executed (1 = first try) and nanoseconds spent inside the
// contention manager. Zero for non-transactional commands. It feeds
// the SLOWLOG, which can then tell a contention victim (many attempts,
// large wait) from genuinely long work.
type txCost struct {
	attempts int64
	waitNs   int64
}

// noteTx captures the transaction's cost so far. Called inside the
// transactional closure — retries overwrite, so the committed
// attempt's totals win (the shared record accumulates across
// attempts).
func (c *txCost) noteTx(tx *stm.Tx) {
	c.attempts = tx.Aborts() + 1
	c.waitNs = tx.WaitNs()
}

// runSingle executes one command as one atomic transaction.
func (srv *Server) runSingle(c *connState, cmd *command, a *args) resp.Value {
	var reply resp.Value
	var err error
	c.owed, err = srv.store.commit(func(tx *stm.Tx, now int64) error {
		tx.SetLabel(cmd.label)
		var err error
		reply, err = cmd.tx(srv.store, tx, now, a)
		c.cost.noteTx(tx)
		return err
	})
	if err != nil {
		return commandError(err)
	}
	return reply
}

// execLabel labels an EXEC block's transaction (the block's own label,
// not any queued command's).
var execLabel = stm.InternLabel("EXEC")

// multi opens a MULTI block.
func (srv *Server) multi(c *connState, _ *args) resp.Value {
	if c.multi {
		return resp.ErrVal("ERR MULTI calls can not be nested")
	}
	c.multi = true
	return resp.SimpleVal("OK")
}

// discard drops the MULTI block.
func (srv *Server) discard(c *connState, _ *args) resp.Value {
	if !c.multi {
		return resp.ErrVal("ERR DISCARD without MULTI")
	}
	c.endMulti()
	return resp.SimpleVal("OK")
}

// exec replays the MULTI block inside one atomic transaction and
// returns the array of replies — or an EXECABORT error when the block
// was poisoned at queue time or any command's execution failed, in
// which case nothing committed.
func (srv *Server) exec(c *connState, _ *args) resp.Value {
	if !c.multi {
		return resp.ErrVal("ERR EXEC without MULTI")
	}
	defer c.endMulti()
	if c.dirty {
		return resp.ErrVal("EXECABORT Transaction discarded because of previous errors")
	}
	replies := make([]resp.Value, len(c.queue))
	var err error
	c.owed, err = srv.store.commit(func(tx *stm.Tx, now int64) (err error) {
		tx.SetLabel(execLabel)
		for i := range c.queue {
			q := &c.queue[i]
			if replies[i], err = q.cmd.tx(srv.store, tx, now, &q.a); err != nil {
				break
			}
		}
		c.cost.noteTx(tx)
		return err
	})
	if err != nil {
		return resp.ErrVal("EXECABORT Transaction aborted: " + commandError(err).Str)
	}
	return resp.ArrayVal(replies...)
}

const errNotDurable = "ERR persistence is disabled (start the server with -data)"

// save cuts a snapshot before replying.
func (srv *Server) save(_ *connState, _ *args) resp.Value {
	if !srv.store.Durable() {
		return resp.ErrVal(errNotDurable)
	}
	switch err := srv.store.Save(srv.ctx); {
	case errors.Is(err, wal.ErrSnapshotInProgress):
		return resp.ErrVal("ERR save already in progress")
	case err != nil:
		return resp.ErrVal("ERR save failed: " + err.Error())
	}
	return resp.SimpleVal("OK")
}

// bgsave starts a snapshot and replies at once: fire and forget,
// Redis-style.
func (srv *Server) bgsave(_ *connState, _ *args) resp.Value {
	if !srv.store.Durable() {
		return resp.ErrVal(errNotDurable)
	}
	srv.wg.Add(1) // from a handler, which Close is still waiting for
	go func() {
		defer srv.wg.Done()
		if err := srv.store.Save(srv.ctx); err != nil && !errors.Is(err, wal.ErrSnapshotInProgress) && !errors.Is(err, context.Canceled) {
			srv.NoteBgsaveFailure()
			log.Printf("kv: background save: %v", err)
		}
	}()
	return resp.SimpleVal("Background saving started")
}

// commandError maps an in-transaction command failure to its error
// reply. Only expected command-level failures reach clients; anything
// else marks an engine bug loudly.
func commandError(err error) resp.Value {
	switch {
	case errors.Is(err, ErrNotInteger):
		return resp.ErrVal(errNotInteger.Error())
	case errors.Is(err, ErrWrongType):
		return resp.ErrVal("WRONGTYPE Operation against a key holding the wrong kind of value")
	case errors.Is(err, ErrNotFloat):
		return resp.ErrVal(errNotFloat.Error())
	}
	return resp.ErrVal("ERR internal: " + err.Error())
}
