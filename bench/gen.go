package main

import (
	"math/rand/v2"
	"strconv"
)

// This file is the deterministic generator. Every key, value and
// request byte of a run is a function of (-seed, workload, connection
// index) and is materialised before any clock starts; the server under
// test receives only the generated bytes, never the seed or the
// workload's name.

// Workload names are permanent: later issues cite them.
const (
	wlDepth1    = "wire-depth1"
	wlPipelined = "wire-pipelined"
	wlDurable   = "wire-durable"
	wlEngine    = "engine-contended"
)

// spec sizes one workload. The numbers are the issue's; unitsPerConn is
// how much of the request stream is materialised per connection (the
// closed loop cycles over it, so it bounds memory, not run length).
type spec struct {
	name string
	// durable starts the server with -data and ends the run with
	// kill -9, restart and the acknowledged-write journal check.
	durable bool
	// depth is the number of commands written per flush (one request
	// unit); replies are read back before the next unit is written.
	depth int
	// strKeys and counters are the preloaded key populations: string
	// keys hold 32-byte values, counter keys hold integers (INCR must
	// never meet a non-integer, so the two never mix).
	strKeys, counters int
	// backlog is the number of jobs pending before the clock starts
	// (engine workload): the list never runs empty, since promotions are
	// rarer than submissions, and set-up is long enough to time.
	backlog int
	// perCommand makes throughput count commands instead of request
	// units (the pipelined workloads).
	perCommand   bool
	unitsPerConn int
	// traceUnits is the fixed request-unit count of the traced
	// single-connection pass (part A): a count, not a duration, so the
	// server-side counters can repeat exactly. The issue's 100 000 is
	// shortened by the same factor as the timed phases.
	traceUnits int
}

const (
	accounts     = 8
	accountStart = 1_000_000
	valueLen     = 32
	pxMillis     = 1000
)

var specs = map[string]spec{
	wlDepth1:    {name: wlDepth1, depth: 1, strKeys: 100_000, counters: 10_000, unitsPerConn: 1 << 17, traceUnits: 20_000},
	wlPipelined: {name: wlPipelined, depth: 16, strKeys: 200_000, perCommand: true, unitsPerConn: 1 << 14, traceUnits: 4_000},
	wlDurable:   {name: wlDurable, durable: true, depth: 16, strKeys: 100_000, counters: 10_000, perCommand: true, unitsPerConn: 1 << 13, traceUnits: 250},
	// The engine workload has a wire form too (each job transaction is
	// one MULTI/EXEC block) so the traced pass can put the same stream
	// through resp and kvserver; the timed run never touches a socket.
	wlEngine: {name: wlEngine, depth: 1, backlog: 200_000, unitsPerConn: 1 << 17, traceUnits: 4_000},
}

var workloadNames = []string{wlDepth1, wlPipelined, wlDurable, wlEngine}

// Command opcodes of the generated streams. The journal check and the
// in-process replay (ladder rung kv.op) switch on them.
const (
	opGet uint8 = iota
	opSet
	opSetPX
	opIncr
	opDel
	opMGet
	opMulti
	opQueued // a command inside MULTI: replies +QUEUED
	opExec
)

// command is one RESP command of a stream: what it is, which key it
// names, where its value bytes sit in stream.buf, and the reply it must
// get (kind byte, and element count for arrays).
type command struct {
	op         uint8
	kind       byte
	arity      int16
	key        int32
	voff, vlen int32
}

// unit is one request unit: the bytes written in one flush and the
// commands (= replies) it carries.
type unit struct {
	off, end int32
	c0, c1   int32
}

// stream is one connection's materialised request stream.
type stream struct {
	buf   []byte
	units []unit
	cmds  []command
	// jobs is set for the engine workload: the transaction each unit
	// encodes, for the in-process loop.
	jobs []job
}

// newRNG derives the per-(workload, connection) generator. PCG's two
// words take the seed and a stream selector, so connections of one run
// draw independent sequences and runs with equal seeds draw equal ones.
func newRNG(seed uint64, workload string, conn int) *rand.Rand {
	sel := uint64(conn) + 1
	for _, c := range []byte(workload) {
		sel = sel*1099511628211 ^ uint64(c)
	}
	return rand.New(rand.NewPCG(seed, sel))
}

// keyspace names keys. Names are fixed-width ("s:" + 8 hex digits) so
// every request of a kind has the same size, and the seed is XORed into
// the digits — a bijection, so names stay distinct — so that different
// seeds hash to different shards and buckets.
type keyspace struct{ mask uint32 }

func newKeyspace(seed uint64) keyspace {
	return keyspace{mask: uint32(seed*0x9e3779b97f4a7c15>>32) & 0x0fffffff}
}

const hexDigits = "0123456789abcdef"

func (ks keyspace) appendKey(b []byte, class byte, idx int32) []byte {
	b = append(b, class, ':')
	x := uint32(idx) ^ ks.mask
	for shift := 28; shift >= 0; shift -= 4 {
		b = append(b, hexDigits[(x>>shift)&0xf])
	}
	return b
}

func (ks keyspace) key(class byte, idx int32) string {
	return string(ks.appendKey(nil, class, idx))
}

func accountKey(i int) string { return "acct:" + strconv.Itoa(i) }

// scatter maps a popularity rank to a key index with a multiplicative
// bijection mod n, so the zipf head is spread over the keyspace instead
// of sitting on indices 0,1,2…
type scatter struct{ n, mul, off int }

func newScatter(n int, rng *rand.Rand) scatter {
	mul := 7919
	for _, p := range []int{7919, 7927, 7933, 7937} {
		if n%p != 0 {
			mul = p
			break
		}
	}
	return scatter{n: n, mul: mul % n, off: rng.IntN(n)}
}

func (s scatter) at(rank int) int { return (rank*s.mul + s.off) % s.n }

// RESP encoding of requests. Requests are arrays of bulk strings.

func appendArray(b []byte, n int) []byte {
	b = append(b, '*')
	b = strconv.AppendInt(b, int64(n), 10)
	return append(b, '\r', '\n')
}

func appendBulk[S string | []byte](b []byte, s S) []byte {
	b = append(b, '$')
	b = strconv.AppendInt(b, int64(len(s)), 10)
	b = append(b, '\r', '\n')
	b = append(b, s...)
	return append(b, '\r', '\n')
}

// appendCmd encodes one command given as strings.
func appendCmd(b []byte, args ...string) []byte {
	b = appendArray(b, len(args))
	for _, a := range args {
		b = appendBulk(b, a)
	}
	return b
}

// appendValue writes a valueLen-byte value: eight hex digits of seq (so
// successive writes of one stream are distinguishable and the journal
// check can tell a stale value from the right one) then random letters.
func appendValue(b []byte, rng *rand.Rand, seq uint32) []byte {
	for shift := 28; shift >= 0; shift -= 4 {
		b = append(b, hexDigits[(seq>>shift)&0xf])
	}
	for i := 8; i < valueLen; i += 8 {
		x := rng.Uint64()
		for j := 0; j < 8; j++ {
			b = append(b, 'a'+byte(x&0xf))
			x >>= 4
		}
	}
	return b
}

// streamBuilder accumulates one stream.
type streamBuilder struct {
	s    stream
	ks   keyspace
	rng  *rand.Rand
	key  []byte // scratch for key names
	seq  uint32
	uOff int32
	uC0  int32
}

func (sb *streamBuilder) keyCmd(name string, op uint8, kind byte, class byte, idx int32) {
	sb.key = sb.ks.appendKey(sb.key[:0], class, idx)
	sb.s.buf = appendArray(sb.s.buf, 2)
	sb.s.buf = appendBulk(sb.s.buf, name)
	sb.s.buf = appendBulk(sb.s.buf, sb.key)
	sb.s.cmds = append(sb.s.cmds, command{op: op, kind: kind, key: idx})
}

func (sb *streamBuilder) get(idx int32)  { sb.keyCmd("GET", opGet, '$', 's', idx) }
func (sb *streamBuilder) del(idx int32)  { sb.keyCmd("DEL", opDel, ':', 's', idx) }
func (sb *streamBuilder) incr(idx int32) { sb.keyCmd("INCR", opIncr, ':', 'c', idx) }

func (sb *streamBuilder) set(idx int32, px bool) {
	sb.key = sb.ks.appendKey(sb.key[:0], 's', idx)
	n, op := 3, opSet
	if px {
		n, op = 5, opSetPX
	}
	sb.s.buf = appendArray(sb.s.buf, n)
	sb.s.buf = appendBulk(sb.s.buf, "SET")
	sb.s.buf = appendBulk(sb.s.buf, sb.key)
	sb.s.buf = append(sb.s.buf, '$')
	sb.s.buf = strconv.AppendInt(sb.s.buf, valueLen, 10)
	sb.s.buf = append(sb.s.buf, '\r', '\n')
	voff := int32(len(sb.s.buf))
	sb.s.buf = appendValue(sb.s.buf, sb.rng, sb.seq)
	sb.seq++
	sb.s.buf = append(sb.s.buf, '\r', '\n')
	if px {
		sb.s.buf = appendBulk(sb.s.buf, "PX")
		sb.s.buf = appendBulk(sb.s.buf, strconv.Itoa(pxMillis))
	}
	sb.s.cmds = append(sb.s.cmds, command{op: op, kind: '+', key: idx, voff: voff, vlen: valueLen})
}

func (sb *streamBuilder) mget(idx ...int32) {
	sb.s.buf = appendArray(sb.s.buf, 1+len(idx))
	sb.s.buf = appendBulk(sb.s.buf, "MGET")
	for _, i := range idx {
		sb.key = sb.ks.appendKey(sb.key[:0], 's', i)
		sb.s.buf = appendBulk(sb.s.buf, sb.key)
	}
	sb.s.cmds = append(sb.s.cmds, command{op: opMGet, kind: '*', arity: int16(len(idx)), key: idx[0]})
}

// raw appends a command given as strings, for MULTI blocks.
func (sb *streamBuilder) raw(op uint8, kind byte, arity int, args ...string) {
	sb.s.buf = appendCmd(sb.s.buf, args...)
	sb.s.cmds = append(sb.s.cmds, command{op: op, kind: kind, arity: int16(arity), key: -1})
}

// transfer is the conservation-checked MULTI block: move amt between
// two distinct accounts.
func (sb *streamBuilder) transfer() {
	from := sb.rng.IntN(accounts)
	to := (from + 1 + sb.rng.IntN(accounts-1)) % accounts
	amt := strconv.Itoa(1 + sb.rng.IntN(100))
	sb.raw(opMulti, '+', 0, "MULTI")
	sb.raw(opQueued, '+', 0, "INCRBY", accountKey(from), "-"+amt)
	sb.raw(opQueued, '+', 0, "INCRBY", accountKey(to), amt)
	sb.raw(opExec, '*', 2, "EXEC")
}

// endUnit closes the request unit begun at the previous endUnit.
func (sb *streamBuilder) endUnit() {
	sb.s.units = append(sb.s.units, unit{off: sb.uOff, end: int32(len(sb.s.buf)), c0: sb.uC0, c1: int32(len(sb.s.cmds))})
	sb.uOff, sb.uC0 = int32(len(sb.s.buf)), int32(len(sb.s.cmds))
}

// genStream materialises connection conn's stream of a workload.
// units overrides the spec's stream length when positive (tests).
func genStream(sp spec, seed uint64, conn, nconn, units int) *stream {
	if units <= 0 {
		units = sp.unitsPerConn
	}
	rng := newRNG(seed, sp.name, conn)
	sb := &streamBuilder{ks: newKeyspace(seed), rng: rng}
	switch sp.name {
	case wlDepth1:
		genDepth1(sb, sp, units)
	case wlPipelined:
		genPipelined(sb, sp, units)
	case wlDurable:
		genDurable(sb, sp, conn, nconn, units)
	case wlEngine:
		sb.s.jobs = genJobs(rng, conn, nconn, units)
		encodeJobs(sb, sb.s.jobs)
	}
	return &sb.s
}

// genDepth1: GET 35 / SET 25 / INCR 10 / DEL 5 / MGET×3 10 / SET…PX 5 /
// MULTI transfer 10, zipf(1.1) over the preloaded keys, one command (or
// one MULTI block) per request unit.
func genDepth1(sb *streamBuilder, sp spec, units int) {
	keys := newScatter(sp.strKeys, sb.rng)
	ctrs := newScatter(sp.counters, sb.rng)
	zk := rand.NewZipf(sb.rng, 1.1, 1, uint64(sp.strKeys-1))
	zc := rand.NewZipf(sb.rng, 1.1, 1, uint64(sp.counters-1))
	key := func() int32 { return int32(keys.at(int(zk.Uint64()))) }
	for u := 0; u < units; u++ {
		switch p := sb.rng.IntN(100); {
		case p < 35:
			sb.get(key())
		case p < 60:
			sb.set(key(), false)
		case p < 70:
			sb.incr(int32(ctrs.at(int(zc.Uint64()))))
		case p < 75:
			sb.del(key())
		case p < 85:
			sb.mget(key(), key(), key())
		case p < 90:
			sb.set(key(), true)
		default:
			sb.transfer()
		}
		sb.endUnit()
	}
}

// genPipelined: GET 80 / SET 20, uniform over the preloaded keys,
// sp.depth commands per request unit.
func genPipelined(sb *streamBuilder, sp spec, units int) {
	for u := 0; u < units; u++ {
		for i := 0; i < sp.depth; i++ {
			idx := int32(sb.rng.IntN(sp.strKeys))
			if sb.rng.IntN(100) < 80 {
				sb.get(idx)
			} else {
				sb.set(idx, false)
			}
		}
		sb.endUnit()
	}
}

// genDurable: writes only, SET 70 / INCR 20 / DEL 10, zipf(1.1).
// Connection c touches only keys with index ≡ c (mod nconn): each key
// then has one writer, its writes are ordered by that connection's
// acknowledgements, and the journal check after kill -9 can say exactly
// which values a key may hold.
func genDurable(sb *streamBuilder, sp spec, conn, nconn, units int) {
	nk, nc := sp.strKeys/nconn, sp.counters/nconn
	keys := newScatter(nk, sb.rng)
	ctrs := newScatter(nc, sb.rng)
	zk := rand.NewZipf(sb.rng, 1.1, 1, uint64(nk-1))
	zc := rand.NewZipf(sb.rng, 1.1, 1, uint64(nc-1))
	key := func() int32 { return int32(keys.at(int(zk.Uint64()))*nconn + conn) }
	for u := 0; u < units; u++ {
		for i := 0; i < sp.depth; i++ {
			switch p := sb.rng.IntN(100); {
			case p < 70:
				sb.set(key(), false)
			case p < 90:
				sb.incr(int32(ctrs.at(int(zc.Uint64()))*nconn + conn))
			default:
				sb.del(key())
			}
		}
		sb.endUnit()
	}
}

// The engine workload's shared objects.
const (
	jobsPending = "jobs:pending"
	jobsActive  = "jobs:active"
	jobsStats   = "jobs:stats"
	// jobsStanding members are active before the clock starts and are
	// never completed, so the sorted set never empties (an empty
	// container key is deleted and the next ZADD would recreate it).
	jobsStanding = 2
	// jobsActiveMax bounds the sorted set, standing members included.
	// The set's member index is a bucket table that doubles when a
	// chain passes six entries and never shrinks, and ZREM counts the
	// members by reading every bucket of it: left to a random walk, the
	// set's high-water mark — a different instant for every seed — would
	// decide how many variables each later ZREM opens, and throughput
	// would halve whenever it crossed a power of two (measured: 45 k →
	// 25 k tx/s at 512 members). Six members cannot make a chain of
	// seven, so the table keeps its four buckets and every run is in the
	// same regime; a small hot set is also what makes conflicts common.
	jobsActiveMax = 6
)

const (
	verbSubmit uint8 = iota
	verbPromote
	verbComplete
)

// job is one engine transaction, every argument fixed before the
// transaction body runs (retries replay the same decision):
//
//	submit    RPUSH pending id     · HINCRBY stats submitted:<id parity> 1
//	promote   LPOP pending         · ZADD active score member · HINCRBY stats promoted 1
//	complete  ZREM active member   · HINCRBY stats done 1
//
// each preceded by a two-account transfer (two INCRBY). promote adds a
// fresh member rather than the popped job's id so the block has a
// static wire form; conservation is by count: a job leaves pending
// exactly when a member enters active, and leaves active exactly when
// done is incremented.
type job struct {
	verb     uint8
	id       string  // submit: the job pushed
	member   string  // promote: the member added; complete: the member removed
	score    float64 // promote
	field    string  // stats field incremented
	from, to string  // account keys
	amt      int64
}

// genJobs draws worker's transactions: 40 % submit, 30 % promote, 30 %
// complete. complete removes the oldest member this worker promoted
// and has not yet completed (a submit stands in when there is none); a
// promote that would take the worker past its share of jobsActiveMax
// becomes a complete; and the tail of the stream is forced to completes
// until none is outstanding, so the loop may cycle over the stream
// without ever adding a member twice.
func genJobs(rng *rand.Rand, worker, workers, n int) []job {
	jobs := make([]job, n)
	var outstanding []string
	share := max((jobsActiveMax-jobsStanding)/workers, 1)
	prefix := "w" + strconv.Itoa(worker) + ":"
	for i := range jobs {
		j := &jobs[i]
		from := rng.IntN(accounts)
		j.from, j.to = accountKey(from), accountKey((from+1+rng.IntN(accounts-1))%accounts)
		j.amt = int64(1 + rng.IntN(100))
		verb := verbSubmit
		switch p := rng.IntN(100); {
		case p >= 70:
			verb = verbComplete
		case p >= 40:
			verb = verbPromote
		}
		score := rng.Float64() * 100
		// The slots left after this one must be able to complete
		// everything outstanding: no promotion that could not be drained,
		// and nothing but completes once they are all needed.
		if left := n - i - 1; len(outstanding) > left || (verb == verbPromote && (len(outstanding)+1 > left || len(outstanding) >= share)) {
			verb = verbComplete
		}
		if verb == verbComplete && len(outstanding) == 0 {
			verb = verbSubmit
		}
		j.verb = verb
		switch verb {
		case verbSubmit:
			j.id = prefix + strconv.Itoa(i)
			j.field = "submitted:" + strconv.Itoa(i&1)
		case verbPromote:
			j.member, j.score = prefix+strconv.Itoa(i), score
			j.field = "promoted"
			outstanding = append(outstanding, j.member)
		case verbComplete:
			j.member, outstanding = outstanding[0], outstanding[1:]
			j.field = "done"
		}
	}
	return jobs
}

// encodeJobs writes each job as one MULTI/EXEC request unit, commands
// in the order applyJob runs them.
func encodeJobs(sb *streamBuilder, jobs []job) {
	for i := range jobs {
		j := &jobs[i]
		n := 4
		amt := strconv.FormatInt(j.amt, 10)
		sb.raw(opMulti, '+', 0, "MULTI")
		sb.raw(opQueued, '+', 0, "INCRBY", j.from, "-"+amt)
		sb.raw(opQueued, '+', 0, "INCRBY", j.to, amt)
		sb.raw(opQueued, '+', 0, "HINCRBY", jobsStats, j.field, "1")
		switch j.verb {
		case verbSubmit:
			sb.raw(opQueued, '+', 0, "RPUSH", jobsPending, j.id)
		case verbPromote:
			sb.raw(opQueued, '+', 0, "LPOP", jobsPending)
			sb.raw(opQueued, '+', 0, "ZADD", jobsActive, strconv.FormatFloat(j.score, 'g', -1, 64), j.member)
			n = 5
		case verbComplete:
			sb.raw(opQueued, '+', 0, "ZREM", jobsActive, j.member)
		}
		sb.raw(opExec, '*', n, "EXEC")
		sb.endUnit()
	}
}
