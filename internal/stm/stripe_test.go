package stm_test

// Regression tests for the striped writer-commit protocol that
// replaced the global commitMu: two writers with overlapping read and
// write sets whose commits land on different stripes must never both
// commit, in eager and in lazy mode, and the protocol must stay
// serializable under a 128-goroutine hammer for every registry
// manager.

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/stm"
)

// newBarrier2 returns a two-party reusable-per-round barrier: both
// goroutines block until each has arrived.
func newBarrier2() func() {
	var mu sync.Mutex
	arrived := 0
	ch := make(chan struct{})
	return func() {
		mu.Lock()
		arrived++
		if arrived == 2 {
			close(ch)
			mu.Unlock()
			return
		}
		mu.Unlock()
		<-ch
	}
}

// testCyclicWriters drives the exact race the old global commitMu
// guarded against: T1 reads x and writes y, T2 reads y and writes x,
// and a phase barrier marches both first attempts in lockstep —
// both read, then both write, then both return from fn at the same
// moment and race into tryCommit. With invisible reads neither write
// conflicts at open time (each writes an object the other only
// reads), so the commit protocol alone must ensure that at most one
// of the two racing validations passes. From (0,0), T1 committing
// y = x+1 and T2 committing x = y+1 serializably must end in (1,2)
// or (2,1); the non-serializable both-commit outcome is (1,1).
//
// Rounds alternate between distinct-stripe and same-stripe x/y pairs
// (stripes are dealt round-robin at creation, so consecutive objects
// differ and objects created commitStripes apart collide), covering
// both the parallel-commit path and the stripe-shared mutex path.
func testCyclicWriters(t *testing.T, opts ...stm.Option) {
	t.Helper()
	rounds := 60
	if testing.Short() {
		rounds = 20
	}
	opts = append([]stm.Option{
		stm.WithManagerFactory(func() stm.Manager { return politeManager{} }),
		// Park every writer commit briefly between validation and the
		// status CAS: on a single-CPU host the two racing commits
		// would otherwise never overlap (the window is tens of
		// nanoseconds against a ~10ms scheduling quantum), and the
		// protocol under test would go unexercised. With the hook,
		// each writer deterministically gives the other the whole
		// window.
		stm.WithCommitHook(func() { time.Sleep(time.Millisecond) }),
	}, opts...)
	// Filler variables pad both read sets: validation scans them
	// before reaching the contended entry (the inline slots hold the
	// first reads, the rest spill to the overflow map, which is
	// scanned last), so the window between "validated the contended
	// read" and "status CAS" is wide enough for the two commits —
	// marched to the commit doorstep together by the barriers — to
	// actually overlap. With
	// the old global commitMu this interleaving was impossible by
	// construction; the striped protocol must exclude it through
	// lock-aware validation.
	const fillers = stm.InlineReads + 16
	for r := 0; r < rounds; r++ {
		s := stm.New(opts...)
		pad := make([]*stm.Var[int], fillers)
		for i := range pad {
			pad[i] = stm.NewVar(i)
		}
		x := stm.NewVar(0)
		if r%2 == 1 {
			// Burn a full stripe cycle so y lands on x's stripe.
			for i := 0; i < 127; i++ {
				stm.NewVar(0)
			}
		}
		y := stm.NewVar(0)

		afterRead := newBarrier2()
		afterWrite := newBarrier2()
		run := func(src, dst *stm.Var[int]) error {
			attempt := 0
			return s.Atomically(func(tx *stm.Tx) error {
				attempt++
				// All reads happen before the first barrier, all writes
				// after it: with invisible reads neither attempt-1
				// transaction ever observes the other's active locator,
				// so no open-time conflict arises and the commit
				// protocol alone must arbitrate. The pads fill the
				// inline read-set slots first, pushing src into the
				// overflow map where validation reaches it late.
				for _, p := range pad {
					if _, err := stm.Read(tx, p); err != nil {
						return err
					}
				}
				v, err := stm.Read(tx, src)
				if err != nil {
					return err
				}
				if attempt == 1 {
					afterRead()
				}
				if err := stm.Write(tx, dst, v+1); err != nil {
					return err
				}
				if attempt == 1 {
					afterWrite()
				}
				return nil
			})
		}

		var wg sync.WaitGroup
		errs := make(chan error, 2)
		wg.Add(2)
		go func() { defer wg.Done(); errs <- run(x, y) }()
		go func() { defer wg.Done(); errs <- run(y, x) }()
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Fatalf("round %d: %v", r, err)
			}
		}
		xv, yv := x.Peek(), y.Peek()
		ok := (xv == 1 && yv == 2) || (xv == 2 && yv == 1)
		if !ok {
			t.Fatalf("round %d: non-serializable outcome x=%d y=%d (both writers committed against stale reads)", r, xv, yv)
		}
	}
}

func TestStripedCommitCyclicWritersEager(t *testing.T) {
	testCyclicWriters(t)
}

func TestStripedCommitCyclicWritersLazy(t *testing.T) {
	testCyclicWriters(t, stm.WithLazyConflicts())
}

// errHammerGiveUp is the livelock fuse for the hammer: a manager whose
// policy can ping-pong symmetric enemies forever (or starve one) must
// not hang the test; abandoned operations are simply not counted.
var errHammerGiveUp = errors.New("stripe hammer: livelock fuse blew")

// TestStripedCommitHammer128 floods one STM with 128 goroutines per
// registry manager, in eager and lazy mode, under the race detector
// when CI runs with -race. Each goroutine increments its own counter
// (disjoint write sets — the parallel-commit path the stripes open
// up) and a shared counter (the full conflict path); lost or
// duplicated increments mean the striped protocol let two conflicting
// commits through.
func TestStripedCommitHammer128(t *testing.T) {
	const goroutines = 128
	perDisjoint, perShared := 12, 4
	if testing.Short() {
		perDisjoint, perShared = 5, 2
	}
	for _, name := range core.Names() {
		for _, mode := range []string{"eager", "lazy"} {
			t.Run(name+"/"+mode, func(t *testing.T) {
				factory, err := core.Factory(name)
				if err != nil {
					t.Fatal(err)
				}
				opts := []stm.Option{
					stm.WithManagerFactory(factory),
					stm.WithInterleavePeriod(2),
				}
				if mode == "lazy" {
					opts = append(opts, stm.WithLazyConflicts())
				}
				s := stm.New(opts...)
				shared := stm.NewVar(0)
				own := make([]*stm.Var[int], goroutines)
				for i := range own {
					own[i] = stm.NewVar(0)
				}

				var okDisjoint, okShared atomic.Int64
				incrFused := func(v *stm.Var[int]) (bool, error) {
					attempts := 0
					err := s.Atomically(func(tx *stm.Tx) error {
						if attempts++; attempts > 2_000 {
							return errHammerGiveUp
						}
						return stm.Update(tx, v, func(n int) int { return n + 1 })
					})
					if errors.Is(err, errHammerGiveUp) {
						return false, nil
					}
					return err == nil, err
				}

				var wg sync.WaitGroup
				errs := make(chan error, goroutines)
				for g := 0; g < goroutines; g++ {
					mine := own[g]
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < perDisjoint; i++ {
							ok, err := incrFused(mine)
							if err != nil {
								errs <- err
								return
							}
							if ok {
								okDisjoint.Add(1)
							}
						}
						for i := 0; i < perShared; i++ {
							ok, err := incrFused(shared)
							if err != nil {
								errs <- err
								return
							}
							if ok {
								okShared.Add(1)
							}
						}
					}()
				}
				wg.Wait()
				close(errs)
				for err := range errs {
					t.Fatal(err)
				}
				sum := 0
				for _, v := range own {
					sum += v.Peek()
				}
				if int64(sum) != okDisjoint.Load() {
					t.Fatalf("disjoint counters sum to %d, want %d (lost or duplicated commits)", sum, okDisjoint.Load())
				}
				if got := shared.Peek(); int64(got) != okShared.Load() {
					t.Fatalf("shared counter = %d, want %d (lost or duplicated commits)", got, okShared.Load())
				}
			})
		}
	}
}

// openRecorder counts manager open notifications by kind.
type openRecorder struct {
	stm.BaseManager
	reads, writes int
}

func (m *openRecorder) Opened(_ stm.Contender, write bool) {
	if write {
		m.writes++
	} else {
		m.reads++
	}
}

// ResolveConflict is never reached in lazy mode (transactions are
// mutually invisible until commit).
func (m *openRecorder) ResolveConflict(me, enemy stm.Contender) (stm.Decision, time.Duration) {
	return stm.Wait, 0
}

// TestLazyWriteNotifiesManagerOnce pins the openWriteLazy accounting
// fix: acquiring an object for writing in lazy mode is one write
// acquisition — the manager hears a single Opened(tx, true), no
// phantom read-open, and stats count one open. (The old path routed
// the pre-image load through openRead, double-notifying the manager
// and inflating Karma-family priorities in lazy mode.)
func TestLazyWriteNotifiesManagerOnce(t *testing.T) {
	// The transactions run one after the other, so they share the one
	// pooled session and its recorder.
	rec := &openRecorder{}
	s := worldOf(rec, stm.WithLazyConflicts())
	v := stm.NewVar(0)
	if err := s.Atomically(func(tx *stm.Tx) error {
		return stm.Update(tx, v, func(n int) int { return n + 1 })
	}); err != nil {
		t.Fatal(err)
	}
	if rec.writes != 1 || rec.reads != 0 {
		t.Fatalf("lazy write acquisition notified reads=%d writes=%d, want 0/1", rec.reads, rec.writes)
	}
	if st := s.TotalStats(); st.Opens != 1 {
		t.Fatalf("Opens = %d, want 1 (one acquisition, counted once)", st.Opens)
	}

	// A read followed by a write of the same object is two
	// acquisitions, mirroring the eager path's accounting.
	*rec = openRecorder{}
	if err := s.Atomically(func(tx *stm.Tx) error {
		if _, err := stm.Read(tx, v); err != nil {
			return err
		}
		return stm.Update(tx, v, func(n int) int { return n + 1 })
	}); err != nil {
		t.Fatal(err)
	}
	if rec.reads != 1 || rec.writes != 1 {
		t.Fatalf("read-then-write notified reads=%d writes=%d, want 1/1", rec.reads, rec.writes)
	}
	if st := s.TotalStats(); st.Opens != 1+2 {
		t.Fatalf("Opens = %d after the second transaction, want 3 (it adds two)", st.Opens)
	}
}

// testCommitConflictCounted holds a victim transaction open while an
// enemy commits a conflicting write, then checks that the victim's
// forced commit-time validation failure shows up in Stats.Conflicts —
// the uniform accounting that makes eager and lazy conflict counts
// comparable in the figures (eager paths used to skip it).
func testCommitConflictCounted(t *testing.T, victimWrites bool, opts ...stm.Option) {
	t.Helper()
	s := stm.New(opts...)
	x := stm.NewVar(0)
	y := stm.NewVar(0)

	held := make(chan struct{})
	release := make(chan struct{})
	attempts := 0
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = s.Atomically(func(tx *stm.Tx) error {
			attempts++
			if _, err := stm.Read(tx, x); err != nil {
				return err
			}
			if victimWrites {
				if err := stm.Write(tx, y, 1); err != nil {
					return err
				}
			} else if _, err := stm.Read(tx, y); err != nil {
				return err
			}
			if attempts == 1 {
				close(held)
				<-release
			}
			return nil
		})
	}()
	<-held
	// The enemy invalidates the victim's read of x and commits in
	// full while the victim sits at the commit doorstep.
	if err := s.Atomically(func(tx *stm.Tx) error {
		return stm.Write(tx, x, 7)
	}); err != nil {
		t.Fatal(err)
	}
	close(release)
	wg.Wait()
	if attempts < 2 {
		t.Fatalf("victim committed without retrying (attempts=%d); commit-time validation missed the conflict", attempts)
	}
	// The enemy's blind write met nobody; any conflict is the victim's.
	if st := s.TotalStats(); st.Conflicts == 0 {
		t.Fatal("commit-time validation failure not counted in Stats.Conflicts")
	}
}

func TestCommitConflictCountedEagerWriter(t *testing.T) {
	testCommitConflictCounted(t, true)
}

func TestCommitConflictCountedReadOnly(t *testing.T) {
	testCommitConflictCounted(t, false)
}

func TestCommitConflictCountedLazyWriter(t *testing.T) {
	testCommitConflictCounted(t, true, stm.WithLazyConflicts())
}

// TestStripeFalseSharingAborts documents (and pins) the protocol's
// one conservative behavior: a reader validating at a writer commit
// may observe a foreign stripe lock on an object the writer never
// touched (two objects can share a stripe) and abort, but it must
// retry and commit — false sharing costs a retry, never progress or
// correctness.
func TestStripeFalseSharingAborts(t *testing.T) {
	s := stm.New()
	vars := make([]*stm.Var[int], 256)
	for i := range vars {
		vars[i] = stm.NewVar(0)
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(vars))
	for i, v := range vars {
		wg.Add(1)
		go func(i int, v *stm.Var[int]) {
			defer wg.Done()
			// Read a neighbour (often on a colliding stripe), write
			// our own var.
			other := vars[(i+128)%len(vars)]
			errs <- s.Atomically(func(tx *stm.Tx) error {
				if _, err := stm.Read(tx, other); err != nil {
					return err
				}
				return stm.Update(tx, v, func(n int) int { return n + 1 })
			})
		}(i, v)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for i, v := range vars {
		if got := v.Peek(); got != 1 {
			t.Fatalf("var %d = %d, want 1", i, got)
		}
	}
}
