package core_test

import (
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
	"repro/internal/stm"
)

// parked starts a transaction on its own goroutine and parks it
// holding obj open for writing, returning the live *stm.Tx — handed out
// of the blocked fn, so valid until release — for direct
// ResolveConflict experiments. release unparks it (it then tries to
// commit); wait joins the goroutine. The parked transaction is alone on
// its object, so its own manager is never consulted.
func parked(t *testing.T, s *stm.STM, obj *stm.Var[int]) (tx *stm.Tx, release, wait func()) {
	t.Helper()
	held := make(chan *stm.Tx, 1)
	releaseCh := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = s.Atomically(func(tx *stm.Tx) error {
			if err := stm.Update(tx, obj, func(v int) int { return v + 1 }); err != nil {
				return err
			}
			select {
			case held <- tx:
			default:
			}
			<-releaseCh
			return nil
		})
	}()
	var once sync.Once
	return <-held, func() { once.Do(func() { close(releaseCh) }) }, func() { <-done }
}

// twoParked gives two live transactions in timestamp order (older
// first).
func twoParked(t *testing.T) (older, younger *stm.Tx, cleanup func()) {
	t.Helper()
	s := stm.New()
	o1 := stm.NewVar(0)
	o2 := stm.NewVar(0)
	tx1, rel1, wait1 := parked(t, s, o1)
	tx2, rel2, wait2 := parked(t, s, o2)
	if tx1.Timestamp() >= tx2.Timestamp() {
		t.Fatalf("timestamps not monotone: %d then %d", tx1.Timestamp(), tx2.Timestamp())
	}
	return tx1, tx2, func() { rel1(); rel2(); wait1(); wait2() }
}

func TestGreedyAbortsYoungerEnemy(t *testing.T) {
	older, younger, cleanup := twoParked(t)
	defer cleanup()
	g := core.NewGreedy()
	if d := g.ResolveConflict(older, younger); d != stm.AbortOther {
		t.Fatalf("greedy vs younger enemy = %v, want abort-other (Rule 1)", d)
	}
}

func TestGreedyAbortsWaitingEnemy(t *testing.T) {
	older, younger, cleanup := twoParked(t)
	defer cleanup()
	older.SetWaiting(true)
	g := core.NewGreedy()
	if d := g.ResolveConflict(younger, older); d != stm.AbortOther {
		t.Fatalf("greedy vs waiting older enemy = %v, want abort-other (Rule 1)", d)
	}
}

func TestGreedyWaitsForOlderRunningEnemy(t *testing.T) {
	older, younger, cleanup := twoParked(t)
	defer cleanup()
	g := core.NewGreedy()
	// Flip the enemy to waiting shortly, so Rule 2's wait terminates.
	go func() {
		time.Sleep(2 * time.Millisecond)
		older.SetWaiting(true)
	}()
	if d := g.ResolveConflict(younger, older); d != stm.Wait {
		t.Fatalf("greedy vs older running enemy = %v, want wait (Rule 2)", d)
	}
	if younger.Waiting() {
		t.Fatal("waiting flag not cleared after Rule 2 wait returned")
	}
	if older.Status() != stm.StatusActive {
		t.Fatal("greedy aborted a higher-priority enemy")
	}
}

func TestGreedyWaitEndsWhenEnemyCommits(t *testing.T) {
	older, younger, cleanup := twoParked(t)
	defer cleanup()
	g := core.NewGreedy()
	start := make(chan struct{})
	decided := make(chan stm.Decision, 1)
	go func() {
		close(start)
		decided <- g.ResolveConflict(younger, older)
	}()
	<-start
	// Let the waiter spin briefly, then commit the enemy by releasing
	// its parked transaction.
	time.Sleep(time.Millisecond)
	cleanup()
	select {
	case d := <-decided:
		if d != stm.Wait {
			t.Fatalf("decision = %v, want wait", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("greedy Rule 2 wait did not terminate after enemy committed")
	}
}

func TestGreedyTimeoutAbortsHaltedOlderEnemy(t *testing.T) {
	older, younger, cleanup := twoParked(t)
	defer cleanup()
	g := core.NewGreedyTimeoutWith(time.Millisecond)
	deadline := time.Now().Add(5 * time.Second)
	for {
		d := g.ResolveConflict(younger, older)
		if d == stm.AbortOther {
			return // recovered from the halted high-priority enemy
		}
		if time.Now().After(deadline) {
			t.Fatal("greedy-timeout never gave up on a halted older enemy")
		}
		runtime.Gosched()
	}
}

func TestGreedyTimeoutStillAbortsYounger(t *testing.T) {
	older, younger, cleanup := twoParked(t)
	defer cleanup()
	g := core.NewGreedyTimeout()
	if d := g.ResolveConflict(older, younger); d != stm.AbortOther {
		t.Fatalf("greedy-timeout vs younger = %v, want abort-other", d)
	}
}

func TestAggressiveAlwaysAborts(t *testing.T) {
	older, younger, cleanup := twoParked(t)
	defer cleanup()
	a := core.NewAggressive()
	if d := a.ResolveConflict(older, younger); d != stm.AbortOther {
		t.Fatalf("aggressive (older) = %v, want abort-other", d)
	}
	if d := a.ResolveConflict(younger, older); d != stm.AbortOther {
		t.Fatalf("aggressive (younger) = %v, want abort-other", d)
	}
}

func TestPoliteBacksOffThenAborts(t *testing.T) {
	older, younger, cleanup := twoParked(t)
	defer cleanup()
	p := core.NewPolite()
	p.MaxTries = 3
	p.Base = time.Microsecond
	for i := 0; i < 3; i++ {
		if d := p.ResolveConflict(younger, older); d != stm.Wait {
			t.Fatalf("polite attempt %d = %v, want wait", i+1, d)
		}
	}
	if d := p.ResolveConflict(younger, older); d != stm.AbortOther {
		t.Fatalf("polite after MaxTries = %v, want abort-other", d)
	}
}

func TestPoliteEpisodeResetsOnOpen(t *testing.T) {
	older, younger, cleanup := twoParked(t)
	defer cleanup()
	p := core.NewPolite()
	p.MaxTries = 2
	p.Base = time.Microsecond
	p.ResolveConflict(younger, older)
	p.Opened(younger, true) // conflict resolved; episode over
	for i := 0; i < 2; i++ {
		if d := p.ResolveConflict(younger, older); d != stm.Wait {
			t.Fatalf("post-reset attempt %d = %v, want wait", i+1, d)
		}
	}
}

func TestRandomizedExtremes(t *testing.T) {
	older, younger, cleanup := twoParked(t)
	defer cleanup()
	always := core.NewRandomized()
	always.P = 1.0
	if d := always.ResolveConflict(older, younger); d != stm.AbortOther {
		t.Fatalf("randomized P=1 = %v, want abort-other", d)
	}
	never := core.NewRandomized()
	never.P = 0.0
	if d := never.ResolveConflict(older, younger); d != stm.Wait {
		t.Fatalf("randomized P=0 = %v, want wait", d)
	}
}

func TestRandomizedMixes(t *testing.T) {
	older, younger, cleanup := twoParked(t)
	defer cleanup()
	r := core.NewRandomized()
	aborts := 0
	const n = 200
	for i := 0; i < n; i++ {
		if r.ResolveConflict(older, younger) == stm.AbortOther {
			aborts++
		}
	}
	if aborts == 0 || aborts == n {
		t.Fatalf("randomized made %d/%d aborts; expected a mixture", aborts, n)
	}
}

func TestKarmaThreshold(t *testing.T) {
	older, younger, cleanup := twoParked(t)
	defer cleanup()
	k := core.NewKarma()
	younger.SetPriority(0)
	older.SetPriority(3)
	// me=younger (karma 0) vs enemy karma 3: attempts 1..3 wait, the
	// 4th attempt (0+4 > 3) kills.
	for i := 1; i <= 3; i++ {
		if d := k.ResolveConflict(younger, older); d != stm.Wait {
			t.Fatalf("karma attempt %d = %v, want wait", i, d)
		}
	}
	if d := k.ResolveConflict(younger, older); d != stm.AbortOther {
		t.Fatalf("karma attempt 4 = %v, want abort-other", d)
	}
}

func TestKarmaRichBeatsPoorImmediately(t *testing.T) {
	older, younger, cleanup := twoParked(t)
	defer cleanup()
	k := core.NewKarma()
	younger.SetPriority(10)
	older.SetPriority(2)
	if d := k.ResolveConflict(younger, older); d != stm.AbortOther {
		t.Fatalf("rich karma vs poor = %v, want abort-other", d)
	}
}

func TestKarmaOpenedAccumulatesPriority(t *testing.T) {
	older, _, cleanup := twoParked(t)
	defer cleanup()
	k := core.NewKarma()
	before := older.Priority()
	k.Opened(older, true)
	k.Opened(older, false)
	if got := older.Priority(); got != before+2 {
		t.Fatalf("priority after 2 opens = %d, want %d", got, before+2)
	}
}

func TestEruptionTransfersMomentum(t *testing.T) {
	older, younger, cleanup := twoParked(t)
	defer cleanup()
	e := core.NewEruption()
	younger.SetPriority(4)
	older.SetPriority(10)
	if d := e.ResolveConflict(younger, older); d != stm.Wait {
		t.Fatalf("eruption first conflict = %v, want wait", d)
	}
	if got := older.Priority(); got != 14 {
		t.Fatalf("enemy priority after transfer = %d, want 14", got)
	}
	// Second call in the same episode must not transfer again.
	e.ResolveConflict(younger, older)
	if got := older.Priority(); got != 14 {
		t.Fatalf("enemy priority after repeat conflict = %d, want 14 (single transfer per episode)", got)
	}
}

func TestPolkaThresholdWithBackoff(t *testing.T) {
	older, younger, cleanup := twoParked(t)
	defer cleanup()
	p := core.NewPolka()
	p.Base = time.Microsecond
	younger.SetPriority(0)
	older.SetPriority(2)
	for i := 1; i <= 2; i++ {
		if d := p.ResolveConflict(younger, older); d != stm.Wait {
			t.Fatalf("polka attempt %d = %v, want wait", i, d)
		}
	}
	if d := p.ResolveConflict(younger, older); d != stm.AbortOther {
		t.Fatalf("polka attempt 3 = %v, want abort-other", d)
	}
}

func TestTimestampKillsYounger(t *testing.T) {
	older, younger, cleanup := twoParked(t)
	defer cleanup()
	ts := core.NewTimestamp()
	if d := ts.ResolveConflict(older, younger); d != stm.AbortOther {
		t.Fatalf("timestamp older-vs-younger = %v, want abort-other", d)
	}
}

func TestTimestampPresumesOlderDeadEventually(t *testing.T) {
	older, younger, cleanup := twoParked(t)
	defer cleanup()
	ts := core.NewTimestamp()
	ts.MaxWaits = 3
	for i := 0; i < 3; i++ {
		if d := ts.ResolveConflict(younger, older); d != stm.Wait {
			t.Fatalf("timestamp wait %d = %v, want wait", i+1, d)
		}
	}
	if d := ts.ResolveConflict(younger, older); d != stm.AbortOther {
		t.Fatalf("timestamp after MaxWaits = %v, want abort-other", d)
	}
}

func TestKillBlockedKillsWaitingEnemy(t *testing.T) {
	older, younger, cleanup := twoParked(t)
	defer cleanup()
	kb := core.NewKillBlocked()
	older.SetWaiting(true)
	if d := kb.ResolveConflict(younger, older); d != stm.AbortOther {
		t.Fatalf("killblocked vs waiting enemy = %v, want abort-other", d)
	}
}

func TestKillBlockedPatienceBound(t *testing.T) {
	older, younger, cleanup := twoParked(t)
	defer cleanup()
	kb := core.NewKillBlocked()
	kb.MaxWaits = 2
	for i := 0; i < 2; i++ {
		if d := kb.ResolveConflict(younger, older); d != stm.Wait {
			t.Fatalf("killblocked wait %d = %v, want wait", i+1, d)
		}
	}
	if d := kb.ResolveConflict(younger, older); d != stm.AbortOther {
		t.Fatalf("killblocked after patience = %v, want abort-other", d)
	}
}

func TestQueueOnBlockTimesOut(t *testing.T) {
	older, younger, cleanup := twoParked(t)
	defer cleanup()
	q := core.NewQueueOnBlock()
	q.MaxWaits = 2
	for i := 0; i < 2; i++ {
		if d := q.ResolveConflict(younger, older); d != stm.Wait {
			t.Fatalf("queueonblock wait %d = %v, want wait", i+1, d)
		}
	}
	if d := q.ResolveConflict(younger, older); d != stm.AbortOther {
		t.Fatalf("queueonblock after timeout = %v, want abort-other", d)
	}
}

func TestKindergartenTakesTurns(t *testing.T) {
	older, younger, cleanup := twoParked(t)
	defer cleanup()
	k := core.NewKindergarten()
	k.Begin(younger)
	if d := k.ResolveConflict(younger, older); d != stm.AbortSelf {
		t.Fatalf("kindergarten first clash = %v, want abort-self (give way)", d)
	}
	k.Begin(younger) // retry of the same logical transaction
	if d := k.ResolveConflict(younger, older); d != stm.AbortOther {
		t.Fatalf("kindergarten second clash = %v, want abort-other (my turn)", d)
	}
}

func TestKindergartenResetsPerTransaction(t *testing.T) {
	older, younger, cleanup := twoParked(t)
	defer cleanup()
	k := core.NewKindergarten()
	k.Begin(younger)
	k.ResolveConflict(younger, older) // yield to older
	k.Begin(older)                    // a different logical transaction begins
	if d := k.ResolveConflict(older, younger); d != stm.AbortSelf {
		t.Fatalf("kindergarten after new transaction = %v, want abort-self (list reset)", d)
	}
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
// rules: for arbitrary waiting-flag states, the decision is AbortOther
// exactly when the enemy is younger or waiting, and Wait otherwise
// (the enemy being flipped to waiting so Rule 2's wait terminates).
func TestQuickGreedyRules(t *testing.T) {
	older, younger, cleanup := twoParked(t)
	defer cleanup()
	g := core.NewGreedy()
	property := func(meIsOlder, enemyWaiting bool) bool {
		me, enemy := older, younger
		if !meIsOlder {
			me, enemy = younger, older
		}
		enemy.SetWaiting(enemyWaiting)
		defer enemy.SetWaiting(false)
		if meIsOlder || enemyWaiting {
			return g.ResolveConflict(me, enemy) == stm.AbortOther
		}
		// Rule 2 would block until the enemy stops running; flip the
		// enemy's flag from another goroutine to terminate the wait.
		done := make(chan stm.Decision, 1)
		go func() { done <- g.ResolveConflict(me, enemy) }()
		time.Sleep(500 * time.Microsecond)
		enemy.SetWaiting(true)
		d := <-done
		enemy.SetWaiting(false)
		return d == stm.Wait
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 30}); err != nil {
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
