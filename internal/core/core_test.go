package core_test

import (
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
	"repro/internal/stm"
)

// view is a fake stm.Contender: the public state of a transaction, set
// directly. Managers only rule, so each test is a decision table over
// views; how the engine carries a ruling out is tested in internal/stm.
type view struct {
	ts       uint64
	waiting  bool
	priority int64
}

func (v *view) Timestamp() uint64   { return v.ts }
func (v *view) Waiting() bool       { return v.waiting }
func (v *view) Priority() int64     { return v.priority }
func (v *view) AddPriority(d int64) { v.priority += d }
func (v *view) Halted() bool        { return false }

// pair returns two running transactions, older first.
func pair() (older, younger *view) { return &view{ts: 1}, &view{ts: 2} }

// rule asks m to rule on me against enemy, fails the test unless the
// decision is want, and returns the wait bound.
func rule(t *testing.T, m stm.Manager, me, enemy *view, want stm.Decision) time.Duration {
	t.Helper()
	d, bound := m.ResolveConflict(me, enemy)
	if d != want {
		t.Fatalf("ruling = %v, want %v", d, want)
	}
	return bound
}

// rules asks m n times, expecting want each time.
func rules(t *testing.T, m stm.Manager, me, enemy *view, want stm.Decision, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		rule(t, m, me, enemy, want)
	}
}

func TestGreedyAbortsYoungerEnemy(t *testing.T) {
	older, younger := pair()
	rule(t, core.NewGreedy(), older, younger, stm.AbortOther) // Rule 1
}

func TestGreedyAbortsWaitingEnemy(t *testing.T) {
	older, younger := pair()
	older.waiting = true
	rule(t, core.NewGreedy(), younger, older, stm.AbortOther) // Rule 1
}

func TestGreedyWaitsForOlderRunningEnemy(t *testing.T) {
	older, younger := pair()
	g := core.NewGreedy()
	// Rule 2: wait, for as long as the enemy runs and does not wait.
	if bound := rule(t, g, younger, older, stm.Wait); bound != 0 {
		t.Fatalf("Rule 2 wait bounded by %v, want unbounded", bound)
	}
	// A waiting caller rules the same way: its own flag is not part
	// of the rules.
	younger.waiting = true
	rule(t, g, younger, older, stm.Wait)
}

func TestGreedyTimeoutAbortsHaltedOlderEnemy(t *testing.T) {
	older, younger := pair()
	g := core.NewGreedyTimeoutWith(time.Millisecond)
	if bound := rule(t, g, younger, older, stm.Wait); bound != time.Millisecond {
		t.Fatalf("first wait bounded by %v, want 1ms", bound)
	}
	// Asked again about the same enemy, still older and running: the
	// bound ran out, so the enemy is presumed halted.
	rule(t, g, younger, older, stm.AbortOther)
	// A later stand-off with the same logical transaction waits twice
	// as long: a slow enemy is aborted only finitely often.
	g.Begin(younger)
	if bound := rule(t, g, younger, older, stm.Wait); bound != 2*time.Millisecond {
		t.Fatalf("wait after a timeout bounded by %v, want 2ms", bound)
	}
	// A successful open ends the stand-off: the next ruling waits.
	g.Opened(younger, true)
	rule(t, g, younger, older, stm.Wait)
}

func TestGreedyTimeoutStillAbortsYounger(t *testing.T) {
	older, younger := pair()
	g := core.NewGreedyTimeout()
	rule(t, g, older, younger, stm.AbortOther)
	older.waiting = true
	rule(t, g, younger, older, stm.AbortOther)
}

func TestAggressiveAlwaysAborts(t *testing.T) {
	older, younger := pair()
	a := core.NewAggressive()
	rule(t, a, older, younger, stm.AbortOther)
	rule(t, a, younger, older, stm.AbortOther)
}

func TestPoliteBacksOffThenAborts(t *testing.T) {
	older, younger := pair()
	p := core.NewPolite()
	p.MaxTries = 3
	p.Base = time.Microsecond
	for n := 1; n <= 3; n++ {
		// The window doubles per attempt.
		if bound := rule(t, p, younger, older, stm.Wait); bound <= 0 || bound > p.Base<<n {
			t.Fatalf("attempt %d waits %v, want (0, %v]", n, bound, p.Base<<n)
		}
	}
	rule(t, p, younger, older, stm.AbortOther)
}

func TestPoliteEpisodeResetsOnOpen(t *testing.T) {
	older, younger := pair()
	p := core.NewPolite()
	p.MaxTries = 2
	p.Base = time.Microsecond
	rule(t, p, younger, older, stm.Wait)
	p.Opened(younger, true) // conflict resolved; episode over
	rules(t, p, younger, older, stm.Wait, 2)
}

func TestRandomizedExtremes(t *testing.T) {
	older, younger := pair()
	always := core.NewRandomized()
	always.P = 1.0
	rule(t, always, older, younger, stm.AbortOther)
	never := core.NewRandomized()
	never.P = 0.0
	rule(t, never, older, younger, stm.Wait)
}

func TestRandomizedMixes(t *testing.T) {
	older, younger := pair()
	flips := func(r *core.Randomized) (seq []stm.Decision, aborts int) {
		for i := 0; i < 200; i++ {
			d, _ := r.ResolveConflict(older, younger)
			seq = append(seq, d)
			if d == stm.AbortOther {
				aborts++
			}
		}
		return seq, aborts
	}
	a, b := core.NewRandomized(), core.NewRandomized()
	a.Seed(7)
	b.Seed(7)
	seqA, aborts := flips(a)
	if aborts == 0 || aborts == len(seqA) {
		t.Fatalf("randomized made %d/%d aborts; expected a mixture", aborts, len(seqA))
	}
	if seqB, _ := flips(b); !slices.Equal(seqA, seqB) {
		t.Fatal("two managers seeded alike flipped different coins")
	}
}

func TestKarmaThreshold(t *testing.T) {
	older, younger := pair()
	older.priority = 3
	k := core.NewKarma()
	// me=younger (karma 0) vs enemy karma 3: attempts 1..3 wait a
	// quantum each, the 4th attempt (0+4 > 3) kills.
	rules(t, k, younger, older, stm.Wait, 3)
	rule(t, k, younger, older, stm.AbortOther)
}

func TestKarmaRichBeatsPoorImmediately(t *testing.T) {
	older, younger := pair()
	younger.priority, older.priority = 10, 2
	rule(t, core.NewKarma(), younger, older, stm.AbortOther)
}

func TestKarmaOpenedAccumulatesPriority(t *testing.T) {
	older, _ := pair()
	k := core.NewKarma()
	k.Opened(older, true)
	k.Opened(older, false)
	if older.priority != 2 {
		t.Fatalf("priority after 2 opens = %d, want 2", older.priority)
	}
}

func TestEruptionTransfersMomentum(t *testing.T) {
	older, younger := pair()
	younger.priority, older.priority = 4, 10
	e := core.NewEruption()
	rule(t, e, younger, older, stm.Wait)
	if older.priority != 14 {
		t.Fatalf("enemy priority after transfer = %d, want 14", older.priority)
	}
	// Second call in the same episode must not transfer again.
	rule(t, e, younger, older, stm.Wait)
	if older.priority != 14 {
		t.Fatalf("enemy priority after repeat conflict = %d, want 14 (single transfer per episode)", older.priority)
	}
}

func TestPolkaThresholdWithBackoff(t *testing.T) {
	older, younger := pair()
	older.priority = 2
	p := core.NewPolka()
	p.Base = time.Microsecond
	for n := 1; n <= 2; n++ {
		if bound := rule(t, p, younger, older, stm.Wait); bound <= 0 || bound > p.Base<<n {
			t.Fatalf("polka attempt %d waits %v, want (0, %v]", n, bound, p.Base<<n)
		}
	}
	rule(t, p, younger, older, stm.AbortOther)
}

func TestTimestampKillsYounger(t *testing.T) {
	older, younger := pair()
	rule(t, core.NewTimestamp(), older, younger, stm.AbortOther)
}

func TestTimestampPresumesOlderDeadEventually(t *testing.T) {
	older, younger := pair()
	ts := core.NewTimestamp()
	ts.MaxWaits = 3
	rules(t, ts, younger, older, stm.Wait, 3)
	rule(t, ts, younger, older, stm.AbortOther)
}

func TestKillBlockedKillsWaitingEnemy(t *testing.T) {
	older, younger := pair()
	older.waiting = true
	rule(t, core.NewKillBlocked(), younger, older, stm.AbortOther)
}

func TestKillBlockedPatienceBound(t *testing.T) {
	older, younger := pair()
	kb := core.NewKillBlocked()
	kb.MaxWaits = 2
	rules(t, kb, younger, older, stm.Wait, 2)
	rule(t, kb, younger, older, stm.AbortOther)
}

func TestQueueOnBlockTimesOut(t *testing.T) {
	older, younger := pair()
	q := core.NewQueueOnBlock()
	q.MaxWaits = 2
	rules(t, q, younger, older, stm.Wait, 2)
	rule(t, q, younger, older, stm.AbortOther)
	// With the timeout off it is the always-wait manager.
	q.MaxWaits = 0
	if bound := rule(t, q, younger, older, stm.Wait); bound != 0 {
		t.Fatalf("timeout-free wait bounded by %v, want unbounded", bound)
	}
}

func TestKindergartenTakesTurns(t *testing.T) {
	older, younger := pair()
	k := core.NewKindergarten()
	k.Begin(younger)
	rule(t, k, younger, older, stm.Wait)       // step aside for a new enemy
	rule(t, k, younger, older, stm.AbortSelf)  // it is still there: give way
	k.Begin(younger)                           // retry of the same logical transaction
	rule(t, k, younger, older, stm.AbortOther) // my turn
}

func TestKindergartenResetsPerTransaction(t *testing.T) {
	older, younger := pair()
	k := core.NewKindergarten()
	k.Begin(younger)
	rule(t, k, younger, older, stm.Wait)
	rule(t, k, younger, older, stm.AbortSelf) // yield to older
	k.Begin(older)                            // a different logical transaction begins
	rule(t, k, older, younger, stm.Wait)      // list reset: step aside again
}

func TestRegistryNames(t *testing.T) {
	names := core.Names()
	if len(names) < 12 {
		t.Fatalf("registry has %d managers, want >= 12: %v", len(names), names)
	}
	for _, name := range names {
		m, err := core.New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if m == nil {
			t.Fatalf("New(%q) = nil", name)
		}
	}
	if _, err := core.New("nonexistent"); err == nil {
		t.Fatal("New(nonexistent) should fail")
	}
	for _, name := range core.FigureManagers {
		if _, err := core.New(name); err != nil {
			t.Fatalf("figure manager %q missing: %v", name, err)
		}
	}
}

// TestQuickGreedyRules is the property-test form of the two greedy
// rules: for arbitrary ages and waiting flags, the ruling is
// AbortOther exactly when the enemy is younger or waiting, and an
// unbounded Wait otherwise.
func TestQuickGreedyRules(t *testing.T) {
	g := core.NewGreedy()
	property := func(meTS, enemyTS uint64, meWaiting, enemyWaiting bool) bool {
		if meTS == enemyTS {
			enemyTS++ // timestamps are identities
		}
		me := &view{ts: meTS, waiting: meWaiting}
		enemy := &view{ts: enemyTS, waiting: enemyWaiting}
		d, bound := g.ResolveConflict(me, enemy)
		if enemyTS > meTS || enemyWaiting {
			return d == stm.AbortOther
		}
		return d == stm.Wait && bound == 0
	}
	if err := quick.Check(property, nil); err != nil {
		t.Fatal(err)
	}
}

// TestLivenessAllManagers runs a small contended counter workload
// under every registered manager: none may deadlock or livelock.
func TestLivenessAllManagers(t *testing.T) {
	for _, name := range core.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			factory, err := core.Factory(name)
			if err != nil {
				t.Fatal(err)
			}
			// The pooled, goroutine-agnostic surface: the factory under
			// test supplies each session's manager.
			s := stm.New(stm.WithManagerFactory(factory))
			obj := stm.NewVar(0)
			const workers, perWorker = 4, 100
			var wg sync.WaitGroup
			errs := make(chan error, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perWorker; i++ {
						err := s.Atomically(func(tx *stm.Tx) error {
							return stm.Update(tx, obj, func(v int) int { return v + 1 })
						})
						if err != nil {
							errs <- err
							return
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if got := obj.Peek(); got != workers*perWorker {
				t.Fatalf("counter = %d, want %d", got, workers*perWorker)
			}
		})
	}
}
