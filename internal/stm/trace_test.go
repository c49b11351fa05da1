package stm_test

import (
	"bytes"
	"errors"
	"runtime/trace"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/stm"
)

// recordingSink captures every delivered transaction, copying the
// event slice as the TraceSink contract requires (the session reuses
// it). Safe for concurrent TxDone calls.
type recordingSink struct {
	mu     sync.Mutex
	sums   []stm.TxSummary
	events [][]stm.TraceEvent
}

func (r *recordingSink) TxDone(sum stm.TxSummary, events []stm.TraceEvent) {
	cp := make([]stm.TraceEvent, len(events))
	copy(cp, events)
	r.mu.Lock()
	r.sums = append(r.sums, sum)
	r.events = append(r.events, cp)
	r.mu.Unlock()
}

func (r *recordingSink) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.sums)
}

// TestAbortCausePartition is the per-cause accounting invariant under
// real contention: 64 goroutines hammering one counter — with a
// sprinkle of non-retryable user errors — across both conflict modes
// and every figure manager. Whatever the managers decide,
// AbortsEnemy+AbortsValidation+AbortsCASRace must equal Aborts exactly
// (each retried attempt charged to exactly one cause), and user errors
// must land in AbortsUser without polluting the partition. The run
// also keeps a sampling tracer installed so the recorder's hook sites
// are exercised by the race detector alongside the counters.
func TestAbortCausePartition(t *testing.T) {
	errPoison := errors.New("poison")
	const goroutines = 64
	perG := 50
	if testing.Short() {
		perG = 25
	}
	modes := []struct {
		name string
		opts []stm.Option
	}{
		{name: "eager"},
		{name: "lazy", opts: []stm.Option{stm.WithLazyConflicts()}},
	}
	for _, mode := range modes {
		for _, mgr := range core.FigureManagers {
			t.Run(mode.name+"/"+mgr, func(t *testing.T) {
				factory, err := core.Factory(mgr)
				if err != nil {
					t.Fatal(err)
				}
				sink := &recordingSink{}
				opts := append([]stm.Option{
					stm.WithManagerFactory(factory),
					stm.WithTracer(sink, 2),
				}, mode.opts...)
				world := stm.New(opts...)
				counter := stm.NewNamedVar("hammer:counter", 0)

				var wg sync.WaitGroup
				for g := 0; g < goroutines; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < perG; i++ {
							if i%10 == 9 {
								// A non-retryable user error: surfaces
								// to the caller, counts in AbortsUser.
								if err := world.Atomically(func(tx *stm.Tx) error {
									if _, err := stm.Read(tx, counter); err != nil {
										return err
									}
									return errPoison
								}); !errors.Is(err, errPoison) {
									t.Errorf("poison tx returned %v", err)
									return
								}
								continue
							}
							if err := world.Atomically(func(tx *stm.Tx) error {
								return stm.Update(tx, counter, func(n int) int { return n + 1 })
							}); err != nil {
								t.Errorf("increment: %v", err)
								return
							}
						}
					}()
				}
				wg.Wait()

				want := goroutines * (perG - perG/10)
				if got := counter.Peek(); got != want {
					t.Fatalf("counter = %d, want %d", got, want)
				}
				total := world.TotalStats()
				if sum := total.AbortsEnemy + total.AbortsValidation + total.AbortsCASRace; sum != total.Aborts {
					t.Fatalf("cause partition broken: enemy %d + validation %d + cas %d = %d, want Aborts %d",
						total.AbortsEnemy, total.AbortsValidation, total.AbortsCASRace, sum, total.Aborts)
				}
				if want := int64(goroutines * (perG / 10)); total.AbortsUser != want {
					t.Fatalf("AbortsUser = %d, want %d", total.AbortsUser, want)
				}
				if sink.len() == 0 {
					t.Fatal("tracer sampled nothing across the whole hammer")
				}
			})
		}
	}
}

// TestTracerSamplingCadence pins the 1-in-N contract on a single
// session: with sampleEvery 3, nine sequential transactions deliver
// exactly three traces, and each trace carries the begin/open/commit
// skeleton, the transaction's label, and a correct summary whose
// latency — the recorder's own clock reading — is the commit event's.
func TestTracerSamplingCadence(t *testing.T) {
	sink := &recordingSink{}
	world := stm.New(stm.WithTracer(sink, 3))
	v := stm.NewNamedVar("cadence:var", 0)
	lbl := stm.InternLabel("cadence")
	for i := 0; i < 9; i++ {
		if err := world.Atomically(func(tx *stm.Tx) error {
			tx.SetLabel(lbl)
			return stm.Update(tx, v, func(n int) int { return n + 1 })
		}); err != nil {
			t.Fatal(err)
		}
	}
	if got := sink.len(); got != 3 {
		t.Fatalf("sampled %d transactions, want 3 (1 in 3 of 9)", got)
	}
	for i, sum := range sink.sums {
		if !sum.Committed || sum.Cause != stm.CauseNone || sum.Attempts != 1 {
			t.Fatalf("trace %d summary = %+v, want committed first-try", i, sum)
		}
		if sum.Label != "cadence" {
			t.Fatalf("trace %d label = %q, want %q", i, sum.Label, "cadence")
		}
		if sum.LatNs <= 0 {
			t.Fatalf("trace %d LatNs = %d, want positive", i, sum.LatNs)
		}
		kinds := map[stm.TraceKind]int{}
		for _, ev := range sink.events[i] {
			kinds[ev.Kind]++
			switch ev.Kind {
			case stm.TraceOpen:
				if ev.Obj != "cadence:var" || !ev.Write {
					t.Fatalf("trace %d open event = %+v, want named write open", i, ev)
				}
			case stm.TraceCommit:
				if ev.Ns != sum.LatNs {
					t.Fatalf("trace %d commit event Ns = %d, want the summary's LatNs %d", i, ev.Ns, sum.LatNs)
				}
			}
		}
		if kinds[stm.TraceBegin] != 1 || kinds[stm.TraceOpen] != 1 || kinds[stm.TraceCommit] != 1 {
			t.Fatalf("trace %d event kinds = %v, want one begin/open/commit", i, kinds)
		}
	}
}

// TestTracerUserErrorAndTee: a transaction that dies on a user error
// is delivered uncommitted with CauseUserError, and Tee fans the same
// delivery to every sink in order.
func TestTracerUserErrorAndTee(t *testing.T) {
	errBad := errors.New("bad")
	a, b := &recordingSink{}, &recordingSink{}
	world := stm.New(stm.WithTracer(stm.Tee(a, b), 1))
	v := stm.NewVar(0)
	if err := world.Atomically(func(tx *stm.Tx) error {
		if _, err := stm.Read(tx, v); err != nil {
			return err
		}
		return errBad
	}); !errors.Is(err, errBad) {
		t.Fatalf("Atomically = %v, want errBad", err)
	}
	for name, sink := range map[string]*recordingSink{"a": a, "b": b} {
		if sink.len() != 1 {
			t.Fatalf("sink %s received %d traces, want 1", name, sink.len())
		}
		sum := sink.sums[0]
		if sum.Committed || sum.Cause != stm.CauseUserError || sum.Attempts != 1 {
			t.Fatalf("sink %s summary = %+v, want uncommitted user-error", name, sum)
		}
		last := sink.events[0][len(sink.events[0])-1]
		if last.Kind != stm.TraceAbort || last.Cause != stm.CauseUserError {
			t.Fatalf("sink %s last event = %+v, want user-error abort", name, last)
		}
	}
}

// TestTraceStrings pins the wire names: ABORTLOG entries and the
// /debug/stm/conflicts exposition print these exact strings.
func TestTraceStrings(t *testing.T) {
	causes := map[stm.AbortCause]string{
		stm.CauseNone:       "none",
		stm.CauseEnemyAbort: "enemy-abort",
		stm.CauseValidation: "validation",
		stm.CauseCASRace:    "cas-race",
		stm.CauseUserError:  "user-error",
	}
	for c, want := range causes {
		if got := c.String(); got != want {
			t.Fatalf("AbortCause(%d).String() = %q, want %q", c, got, want)
		}
	}
	kinds := map[stm.TraceKind]string{
		stm.TraceBegin:    "begin",
		stm.TraceOpen:     "open",
		stm.TraceConflict: "conflict",
		stm.TraceAbort:    "abort",
		stm.TraceCommit:   "commit",
	}
	for k, want := range kinds {
		if got := k.String(); got != want {
			t.Fatalf("TraceKind(%d).String() = %q, want %q", k, got, want)
		}
	}
	if got := stm.InternLabel("trace:roundtrip").String(); got != "trace:roundtrip" {
		t.Fatalf("InternLabel round-trip = %q", got)
	}
}

// TestTracerDisabledAllocParity is the enforceable form of the
// recorder's zero-overhead claim (BenchmarkTracerOverhead is the
// observable counterpart): a pooled transaction on an STM with no
// tracer, and one on an STM whose tracer never samples, must allocate
// exactly as much as each other — the hook sites are nil checks, not
// allocation sites. CI runs this test, so a recorder change that adds
// a disabled-path allocation fails the build.
func TestTracerDisabledAllocParity(t *testing.T) {
	measure := func(world *stm.STM) float64 {
		v := stm.NewVar(0)
		return testing.AllocsPerRun(500, func() {
			if err := world.Atomically(func(tx *stm.Tx) error {
				return stm.Update(tx, v, func(n int) int { return n + 1 })
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
	off := measure(stm.New())
	// Installed but effectively never sampling: every hook site takes
	// its disabled branch, exactly like the off world.
	unsampled := measure(stm.New(stm.WithTracer(&recordingSink{}, 1<<30)))
	if off != unsampled {
		t.Fatalf("tracer installation changed the unsampled path: %.1f allocs without tracer, %.1f with", off, unsampled)
	}
	t.Logf("pooled Atomically: %.1f allocs/tx (tracer off and unsampled)", off)
}

// TestRuntimeTraceTasks checks that every STM, with no option set,
// shows its transactions to go tool trace: while an execution trace is
// collected, each transaction is a task named "stm.tx" and each
// attempt a region named "stm.attempt".
func TestRuntimeTraceTasks(t *testing.T) {
	if trace.IsEnabled() {
		t.Skip("execution tracing is already on")
	}
	var buf bytes.Buffer
	if err := trace.Start(&buf); err != nil {
		t.Skipf("cannot start an execution trace: %v", err)
	}
	world := stm.New()
	v := stm.NewVar(0)
	for i := 0; i < 8; i++ {
		if err := world.Atomically(func(tx *stm.Tx) error {
			return stm.Update(tx, v, func(n int) int { return n + 1 })
		}); err != nil {
			trace.Stop()
			t.Fatal(err)
		}
	}
	trace.Stop()
	for _, name := range []string{"stm.tx", "stm.attempt"} {
		if !bytes.Contains(buf.Bytes(), []byte(name)) {
			t.Errorf("execution trace (%d bytes) names no %q", buf.Len(), name)
		}
	}
}

// nullSink drops everything — the benchmark sink, so the measured cost
// is recording, not aggregation.
type nullSink struct{}

func (nullSink) TxDone(stm.TxSummary, []stm.TraceEvent) {}

// BenchmarkTracerOverhead measures the flight recorder's cost tiers on
// the pooled single-counter workload: disabled (no tracer — the
// default everything else in the repo runs), installed-but-unsampled
// (the 1-in-N miss path), and sampled-always (the worst case: every
// transaction records and delivers). The first two must be
// indistinguishable; the third prices what -txtrace 1 costs.
func BenchmarkTracerOverhead(b *testing.B) {
	cases := []struct {
		name string
		opts []stm.Option
	}{
		{name: "disabled"},
		{name: "unsampled", opts: []stm.Option{stm.WithTracer(nullSink{}, 1<<30)}},
		{name: "sampled-always", opts: []stm.Option{stm.WithTracer(nullSink{}, 1)}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			world := stm.New(tc.opts...)
			v := stm.NewNamedVar("bench:counter", 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := world.Atomically(func(tx *stm.Tx) error {
					return stm.Update(tx, v, func(n int) int { return n + 1 })
				}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if got := v.Peek(); got != b.N {
				b.Fatalf("counter = %d, want %d", got, b.N)
			}
		})
	}
}
