package stm

import (
	"context"
	rtrace "runtime/trace"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// The transaction flight recorder: a sampled, per-session event trace
// of everything the contention-management protocol decides — which
// object a transaction opened, which enemy it fought, what the manager
// ruled, how long it waited, and why each attempt died. The paper's
// whole subject is which transaction a manager sacrifices and why;
// aggregate counters (Stats) can show *that* karma collapses under
// Figure 10's convoy, but only the recorder can name the hot object
// and the aggressor→victim edge behind it.
//
// The design follows the Tx.OnCommit pattern: every hook site is a
// single owner-private pointer nil check (tx.sess.rec), so with
// tracing disabled the engine pays one predictable branch per site and
// allocates nothing — the parity the tracer-disabled benchmarks gate.
// With tracing enabled, sampling (1 in every N logical transactions
// per session) bounds the cost further; the event buffer is owned by
// the session and reused across sampled transactions, so sinks must
// copy what they keep.

// AbortCause classifies why an attempt aborted. Exactly one of the
// non-user causes is charged per counted abort, so
// AbortsEnemy+AbortsValidation+AbortsCASRace always equals Aborts.
type AbortCause uint8

const (
	// CauseNone marks an attempt that did not abort (or has not yet).
	CauseNone AbortCause = iota
	// CauseEnemyAbort: an enemy's contention manager aborted this
	// transaction (observed at the next step check), or this
	// transaction's own manager ruled AbortSelf in a conflict.
	CauseEnemyAbort
	// CauseValidation: read-set validation failed — a committed writer
	// invalidated a version this attempt had observed.
	CauseValidation
	// CauseCASRace: the commit status CAS lost — an enemy aborted the
	// transaction inside the commit window, after validation passed.
	CauseCASRace
	// CauseUserError: the transactional function returned a
	// non-retryable error. Counted in Stats.AbortsUser, not in
	// Stats.Aborts (which has always counted only retried attempts).
	CauseUserError
)

// String names the cause the way ABORTLOG and /debug/stm/conflicts
// print it.
func (c AbortCause) String() string {
	switch c {
	case CauseNone:
		return "none"
	case CauseEnemyAbort:
		return "enemy-abort"
	case CauseValidation:
		return "validation"
	case CauseCASRace:
		return "cas-race"
	case CauseUserError:
		return "user-error"
	}
	return "invalid"
}

// TraceKind is the kind of one recorded event.
type TraceKind uint8

const (
	// TraceBegin opens an attempt (Attempt numbers from 1).
	TraceBegin TraceKind = iota
	// TraceOpen records an object acquisition (Obj, Stripe, Write).
	TraceOpen
	// TraceConflict records one contention-manager ruling (Obj, Enemy,
	// Decision, Ns = time of the ruling and the engine's wait on it).
	TraceConflict
	// TraceAbort closes an attempt that died (Cause).
	TraceAbort
	// TraceCommit closes the attempt that committed (Ns = wall time of
	// the whole logical transaction, retries included).
	TraceCommit
)

// String names the event kind.
func (k TraceKind) String() string {
	switch k {
	case TraceBegin:
		return "begin"
	case TraceOpen:
		return "open"
	case TraceConflict:
		return "conflict"
	case TraceAbort:
		return "abort"
	case TraceCommit:
		return "commit"
	}
	return "invalid"
}

// TraceEvent is one recorded step of a sampled logical transaction.
// The slice handed to TraceSink.TxDone is reused by the session; sinks
// must copy events they retain.
type TraceEvent struct {
	Kind     TraceKind
	Attempt  int32      // attempt number, from 1
	Obj      string     // open/conflict: the object's NewNamedVar label ("" if unnamed)
	Stripe   uint32     // open/conflict: the object's commit stripe
	Write    bool       // open: write (vs read) acquisition
	Enemy    string     // conflict: the enemy transaction's label ("" if unlabelled)
	Decision Decision   // conflict: the manager's ruling
	Ns       int64      // conflict: ns of the ruling and its wait; commit: whole-tx latency ns
	Cause    AbortCause // abort: why the attempt died
}

// TxSummary condenses one sampled logical transaction for sinks that
// aggregate rather than replay.
type TxSummary struct {
	// Label is the transaction's SetLabel label ("" if unlabelled).
	Label string
	// Committed reports whether the logical transaction committed.
	Committed bool
	// Cause is the final attempt's abort cause: CauseNone for a
	// transaction that committed first try, otherwise the cause of the
	// last abort (for committed transactions, the abort that forced
	// the final retry).
	Cause AbortCause
	// Attempts is the number of attempts executed (1 = first-try).
	Attempts int64
	// LatNs is the wall time of the whole logical transaction.
	LatNs int64
	// WaitNs is the total time spent in the engine's wait on a ruling
	// across every attempt.
	WaitNs int64
}

// TraceSink receives sampled transactions. TxDone runs on the
// transaction's own goroutine immediately after the logical
// transaction ends — after commit stripes are released, so a sink
// cannot deadlock the commit protocol, but still on the session's hot
// path: implementations must be fast, must not block, and must not run
// transactions themselves (stmlint's hookreentry enforces the latter).
// The events slice is reused by the session; copy to retain.
type TraceSink interface {
	TxDone(sum TxSummary, events []TraceEvent)
}

// Tee fans one trace stream out to several sinks, in order.
func Tee(sinks ...TraceSink) TraceSink { return teeSink(sinks) }

type teeSink []TraceSink

func (t teeSink) TxDone(sum TxSummary, events []TraceEvent) {
	for _, s := range t {
		s.TxDone(sum, events)
	}
}

// tracerConfig is the STM's installed tracer: a sink plus the
// per-session sampling period.
type tracerConfig struct {
	sink  TraceSink
	every uint32
}

// WithTracer installs sink as the STM's flight recorder, sampling one
// in every sampleEvery logical transactions per session (values < 1
// record every transaction). The disabled path — no WithTracer — costs
// one nil check per hook site; see the package benchmarks.
func WithTracer(sink TraceSink, sampleEvery int) Option {
	return func(s *STM) {
		if sink == nil {
			return
		}
		every := uint32(1)
		if sampleEvery > 1 {
			every = uint32(sampleEvery)
		}
		s.tracer = &tracerConfig{sink: sink, every: every}
	}
}

// Labels. Transactions are labelled with interned strings so that the
// hot paths (an enemy reading its victim's label, a retry resetting
// state) touch only a uint32. The intern table is append-only and
// process-wide: labels are created at setup time (a kv server interns
// its command names once; the harness interns its operation verbs), so
// an unbounded-cardinality caller would be misusing it.
var (
	labelMu    sync.Mutex
	labelTable atomic.Pointer[[]string]
	labelIDs   = map[string]uint32{}
)

// Label is an interned transaction label. The zero Label is "".
type Label struct{ id uint32 }

// InternLabel interns name and returns its Label. Interning the same
// name twice returns the same Label; intern at setup time, not per
// transaction.
func InternLabel(name string) Label {
	if name == "" {
		return Label{}
	}
	labelMu.Lock()
	defer labelMu.Unlock()
	if id, ok := labelIDs[name]; ok {
		return Label{id: id}
	}
	var cur []string
	if p := labelTable.Load(); p != nil {
		cur = *p
	}
	neu := make([]string, len(cur)+1)
	copy(neu, cur)
	neu[len(cur)] = name
	id := uint32(len(neu)) // ids from 1; 0 is ""
	labelIDs[name] = id
	labelTable.Store(&neu)
	return Label{id: id}
}

// String returns the interned name.
func (l Label) String() string { return labelName(l.id) }

// labelName resolves an interned id, tolerating 0 (unlabelled).
func labelName(id uint32) string {
	if id == 0 {
		return ""
	}
	p := labelTable.Load()
	if p == nil || int(id) > len(*p) {
		return ""
	}
	return (*p)[id-1]
}

// SetLabel labels the logical transaction for the flight recorder:
// conflict events name the enemy by its label, and aggregation sinks
// key on it. The label survives retries (it lives on the shared
// record) and is cleared when the next logical transaction reuses the
// record. Call it early in the transactional function — conflicts
// recorded before the call see the previous value (empty at worst),
// which sampling-grade diagnostics tolerate.
func (tx *Tx) SetLabel(l Label) { tx.shared.label.Store(l.id) }

// Label returns the transaction's label ("" if unlabelled). Safe to
// call on an enemy transaction.
func (tx *Tx) Label() string { return labelName(tx.shared.label.Load()) }

// WaitNs returns the total nanoseconds this logical transaction has
// spent in the engine's wait on a ruling so far, across all attempts.
// Layers above the engine use it to tell contention victims from
// genuinely slow work (the kv SLOWLOG records it per command).
func (tx *Tx) WaitNs() int64 { return tx.shared.waitNs.Load() }

// maxTraceEvents bounds one sampled transaction's event buffer, so a
// pathological convoy (thousands of conflict rounds) cannot grow the
// session's buffer without bound; events beyond the cap are dropped
// and the summary's counters remain exact.
const maxTraceEvents = 512

// txRecorder is a session's reusable recording state for the one
// sampled transaction currently running on it (sess.rec non-nil marks
// a sampled transaction — that pointer is the entire disabled-path
// cost). Owner-private, like the rest of the attempt scaffolding.
type txRecorder struct {
	events  []TraceEvent
	attempt int32
	cause   AbortCause    // last abort's cause
	start   time.Duration // metrics.Mono reading when armTrace sampled the transaction
}

// event appends e if the buffer has room.
func (r *txRecorder) event(e TraceEvent) {
	if len(r.events) >= maxTraceEvents {
		return
	}
	e.Attempt = r.attempt
	r.events = append(r.events, e)
}

// begin opens the next attempt.
func (r *txRecorder) begin() {
	r.attempt++
	r.event(TraceEvent{Kind: TraceBegin})
}

// open records an object acquisition.
func (r *txRecorder) open(o *tobj, write bool) {
	r.event(TraceEvent{Kind: TraceOpen, Obj: o.name, Stripe: o.stripe, Write: write})
}

// conflict records one manager consultation.
func (r *txRecorder) conflict(o *tobj, enemy *Tx, d Decision, ns int64) {
	r.event(TraceEvent{
		Kind: TraceConflict, Obj: o.name, Stripe: o.stripe,
		Enemy: enemy.Label(), Decision: d, Ns: ns,
	})
}

// abort closes an attempt that died.
func (r *txRecorder) abort(cause AbortCause) {
	r.cause = cause
	r.event(TraceEvent{Kind: TraceAbort, Cause: cause})
}

// reset readies the recorder for the next sampled transaction.
func (r *txRecorder) reset() {
	clear(r.events) // release label/obj strings
	r.events = r.events[:0]
	r.attempt = 0
	r.cause = CauseNone
}

// armTrace decides whether the next logical transaction is sampled
// and, if so, arms the session's recorder and reads the clock, which
// finishTrace measures the transaction's latency from: an unsampled
// transaction reads none. Called only when a tracer is installed.
func (sess *session) armTrace(trc *tracerConfig) {
	sess.traceSkip++
	if sess.traceSkip < trc.every {
		return
	}
	sess.traceSkip = 0
	if sess.recBuf == nil {
		sess.recBuf = &txRecorder{events: make([]TraceEvent, 0, 64)}
	}
	sess.rec = sess.recBuf
	sess.rec.start = metrics.Mono()
}

// finishTrace delivers the sampled transaction to the sink and
// disarms the recorder. Runs after the logical transaction ended —
// stripes released, status frozen — but on the session's hot path, so
// the sink contract (fast, non-blocking, no transactions) applies.
func (sess *session) finishTrace(trc *tracerConfig, shared *txShared, committed bool) {
	rec := sess.rec
	sess.rec = nil
	latNs := int64(metrics.Mono() - rec.start)
	sum := TxSummary{
		Label:     labelName(shared.label.Load()),
		Committed: committed,
		Cause:     rec.cause,
		Attempts:  int64(rec.attempt),
		LatNs:     latNs,
		WaitNs:    shared.waitNs.Load(),
	}
	if committed {
		rec.event(TraceEvent{Kind: TraceCommit, Ns: latNs})
	}
	trc.sink.TxDone(sum, rec.events)
	rec.reset()
}

// Runtime/trace integration: whenever Go execution tracing is active
// (trace.IsEnabled), every logical transaction is a task named
// "stm.tx", every attempt a region named "stm.attempt", and every
// abort a log event carrying its cause, so `go tool trace` shows
// attempt lifecycles interleaved with scheduling. Outside a trace
// collection the cost is one boolean check per transaction.

// beginRuntimeTask opens the per-transaction task; the caller has
// checked that execution tracing is live.
func (sess *session) beginRuntimeTask() *rtrace.Task {
	ctx, task := rtrace.NewTask(context.Background(), "stm.tx")
	sess.rtCtx = ctx
	return task
}

// endRuntimeTask ends the task beginRuntimeTask opened.
func (sess *session) endRuntimeTask(task *rtrace.Task) {
	sess.rtCtx = nil
	task.End()
}

// beginAttemptRegion opens the per-attempt region, or returns nil
// outside a collection.
func (sess *session) beginAttemptRegion() *rtrace.Region {
	if sess.rtCtx == nil {
		return nil
	}
	return rtrace.StartRegion(sess.rtCtx, "stm.attempt")
}

// endAttemptRegion closes the attempt's region, logging the abort
// cause for attempts that died (cause CauseNone means committed).
func (sess *session) endAttemptRegion(reg *rtrace.Region, cause AbortCause) {
	if reg == nil {
		return
	}
	if cause != CauseNone {
		rtrace.Log(sess.rtCtx, "stm.abort", cause.String())
	}
	reg.End()
}
