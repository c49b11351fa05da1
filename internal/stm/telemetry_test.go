package stm

import (
	"testing"
	"time"
)

// sleepyManager rules one wait bounded by naps, then aborts the enemy,
// so tests can assert WaitNs accounting.
type sleepyManager struct {
	BaseManager
	naps   time.Duration
	waited bool
}

func (m *sleepyManager) ResolveConflict(me, enemy Contender) (Decision, time.Duration) {
	if m.waited {
		return AbortOther, 0
	}
	m.waited = true
	return Wait, m.naps
}

// TestWaitTimeAccounting: time spent in the engine's wait on a ruling
// lands in Stats.WaitNs. The enemy is a halted
// transaction left obstructing the object, the deterministic way to
// force exactly one conflict episode.
func TestWaitTimeAccounting(t *testing.T) {
	const nap = 2 * time.Millisecond
	s := New(WithManagerFactory(func() Manager { return &sleepyManager{naps: nap} }))
	v := NewVar(0)

	// Park a halted-but-active enemy owning v (it meets no conflict, so
	// its own manager never naps).
	err := s.Atomically(func(tx *Tx) error {
		if err := Write(tx, v, 1); err != nil {
			return err
		}
		tx.Halt()
		return ErrHalted
	})
	if err != ErrHalted {
		t.Fatalf("victim error = %v, want ErrHalted", err)
	}

	if err := s.Atomically(func(tx *Tx) error {
		return Write(tx, v, 2)
	}); err != nil {
		t.Fatal(err)
	}
	total := s.TotalStats()
	if total.WaitNs < int64(nap) {
		t.Fatalf("WaitNs = %v, want >= %v", time.Duration(total.WaitNs), nap)
	}
	if total.BackoffNs < 0 {
		t.Fatalf("BackoffNs negative: %d", total.BackoffNs)
	}
}

// TestStatsAddIncludesTelemetry guards against a field being forgotten
// in Stats.Add when new counters are introduced.
func TestStatsAddIncludesTelemetry(t *testing.T) {
	a := Stats{WaitNs: 3, BackoffNs: 5}
	a.Add(Stats{WaitNs: 7, BackoffNs: 11})
	if a.WaitNs != 10 || a.BackoffNs != 16 {
		t.Fatalf("Add dropped telemetry fields: %+v", a)
	}
}
