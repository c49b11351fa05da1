package kv

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/resp"
	"repro/internal/stm"
)

// AbortLog is SLOWLOG's sibling for contention: a fixed-size ring of
// the most recent *troubled* sampled transactions — those that
// retried, waited on a contention manager, or died on a user error —
// each with its abort cause and a compact rendering of its event
// trace. Where SLOWLOG answers "which commands were slow", ABORTLOG
// answers "which transactions fought, with whom, and why they lost".
//
// It implements stm.TraceSink; cmd/stmkv installs it (teed with the
// obs conflict matrix) via stm.WithTracer and hands it to the server
// with WithAbortLog, which serves it as ABORTLOG GET/LEN/RESET.
// TxDone runs on the transaction's goroutine after commit, so the
// critical section is kept to the ring store; rendering the event
// strings happens outside the lock.
type AbortLog struct {
	*ring[abortEntry]
}

// abortEntry is one recorded troubled transaction.
type abortEntry struct {
	unix      int64 // wall-clock seconds when the transaction ended
	label     string
	committed bool
	cause     stm.AbortCause // final attempt's cause (last abort for committed txs)
	attempts  int64
	waitNs    int64
	latNs     int64
	events    []string
}

// maxAbortEvents caps the rendered trace per entry; the engine already
// caps recording at 512 events, this bounds what one GET reply ships.
const maxAbortEvents = 32

// NewAbortLog returns a ring keeping the size most recent troubled
// transactions (minimum 1).
func NewAbortLog(size int) *AbortLog {
	return &AbortLog{newRing[abortEntry](size)}
}

// TxDone records the transaction if it was troubled: any retry, any
// manager wait, or any abort cause. Clean first-try commits — the
// overwhelming majority — return after two comparisons.
func (al *AbortLog) TxDone(sum stm.TxSummary, events []stm.TraceEvent) {
	if sum.Attempts <= 1 && sum.WaitNs == 0 && sum.Cause == stm.CauseNone {
		return
	}
	// Render outside the lock; the events slice is reused by the
	// session, so everything kept is copied into fresh strings here.
	al.add(abortEntry{
		unix:      time.Now().Unix(),
		label:     sum.Label,
		committed: sum.Committed,
		cause:     sum.Cause,
		attempts:  sum.Attempts,
		waitNs:    sum.WaitNs,
		latNs:     sum.LatNs,
		events:    renderEvents(events),
	})
}

// renderEvents formats a trace compactly, one string per event:
//
//	a2 conflict obj=list(jobs) enemy=LPUSH decision=wait wait_us=12
//	a2 abort cause=enemy-abort
func renderEvents(events []stm.TraceEvent) []string {
	n := len(events)
	if n > maxAbortEvents {
		n = maxAbortEvents
	}
	out := make([]string, 0, n)
	for _, ev := range events[:n] {
		var b strings.Builder
		fmt.Fprintf(&b, "a%d %s", ev.Attempt, ev.Kind)
		switch ev.Kind {
		case stm.TraceOpen, stm.TraceConflict:
			if ev.Obj != "" {
				b.WriteString(" obj=" + ev.Obj)
			} else {
				b.WriteString(" stripe=" + strconv.FormatUint(uint64(ev.Stripe), 10))
			}
		}
		switch ev.Kind {
		case stm.TraceOpen:
			if ev.Write {
				b.WriteString(" write")
			} else {
				b.WriteString(" read")
			}
		case stm.TraceConflict:
			enemy := ev.Enemy
			if enemy == "" {
				enemy = "(unlabelled)"
			}
			fmt.Fprintf(&b, " enemy=%s decision=%s wait_us=%d",
				enemy, ev.Decision, ev.Ns/1000)
		case stm.TraceAbort:
			b.WriteString(" cause=" + ev.Cause.String())
		case stm.TraceCommit:
			fmt.Fprintf(&b, " lat_us=%d", ev.Ns/1000)
		}
		out = append(out, b.String())
	}
	if len(events) > maxAbortEvents {
		out = append(out, fmt.Sprintf("... %d more events", len(events)-maxAbortEvents))
	}
	return out
}

// Len reports how many entries the ring currently holds.
func (al *AbortLog) Len() int64 { return al.len() }

// WithAbortLog hands the server the abort log installed on its store's
// engine (via stm.WithTracer), so ABORTLOG serves it. Without this
// option the server keeps a private, never-fed ring: ABORTLOG answers,
// but stays empty.
func WithAbortLog(al *AbortLog) ServerOption {
	return func(srv *Server) {
		if al != nil {
			srv.abort = al
		}
	}
}

// abortlogReply serves ABORTLOG GET [n] | LEN | RESET. Each GET entry
// is an array:
//
//  1. id            2) unix seconds   3) label ("" unlabelled)
//  4. committed 0/1 5) cause          6) attempts
//  7. wait_usec     8) latency_usec   9) array of event strings
func (srv *Server) abortlogReply(_ *connState, a *args) resp.Value {
	return logReply("ABORTLOG", a, func(n int) resp.Value {
		entries := srv.abort.get(n)
		elems := make([]resp.Value, len(entries))
		for i, l := range entries {
			e := l.e
			evs := make([]resp.Value, len(e.events))
			for j, s := range e.events {
				evs[j] = resp.BulkVal(s)
			}
			elems[i] = resp.ArrayVal(
				resp.IntVal(l.id),
				resp.IntVal(e.unix),
				resp.BulkVal(e.label),
				resp.IntVal(int64(boolInt(e.committed))),
				resp.BulkVal(e.cause.String()),
				resp.IntVal(e.attempts),
				resp.IntVal(e.waitNs/1000),
				resp.IntVal(e.latNs/1000),
				resp.ArrayVal(evs...),
			)
		}
		return resp.ArrayVal(elems...)
	}, srv.abort.Len, srv.abort.reset)
}
