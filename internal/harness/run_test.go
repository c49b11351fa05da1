package harness

import (
	"errors"
	"math/rand/v2"
	"testing"
	"time"

	"repro/internal/stm"
	"repro/internal/workload"
)

// TestForestAllProbZero: an explicit ForestAllProb of zero survives
// Run's defaults, so the forest draws only single-tree operations.
func TestForestAllProbZero(t *testing.T) {
	cfg := Config{Structure: "rbforest", ForestAllProb: 0}.withDefaults()
	keys, err := workload.NewKeyDist(cfg.KeyDist, cfg.KeyRange)
	if err != nil {
		t.Fatal(err)
	}
	application, err := newApp(cfg, keys, workload.UpdateMix)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 10000; i++ {
		if application.draw(rng).all {
			t.Fatalf("draw %d touched all trees with ForestAllProb 0 (withDefaults gave %v)", i, cfg.ForestAllProb)
		}
	}
}

// closeFailApp is an empty workload whose close fails, standing in for
// a kvwal run whose log hit a write or fsync error.
type closeFailApp struct{ closed bool }

var errLogDied = errors.New("log died")

func (a *closeFailApp) seed(*stm.STM, *rand.Rand) error { return nil }
func (a *closeFailApp) draw(*rand.Rand) opDesc          { return opDesc{} }
func (a *closeFailApp) step(*stm.Tx, opDesc) error      { return nil }
func (a *closeFailApp) mixName() string                 { return "" }
func (a *closeFailApp) audit(*stm.STM) error            { return nil }
func (a *closeFailApp) close() error {
	a.closed = true
	return errLogDied
}

// TestRunReturnsCloseError: a point whose app fails to close is an
// error, not a measurement.
func TestRunReturnsCloseError(t *testing.T) {
	cfg := Config{
		Structure: "fake",
		Manager:   "greedy",
		Duration:  10 * time.Millisecond,
		Warmup:    time.Millisecond,
	}.withDefaults()
	application := &closeFailApp{}
	_, err := run(cfg, application)
	if !application.closed {
		t.Fatal("run did not close the app")
	}
	if !errors.Is(err, errLogDied) {
		t.Fatalf("run error = %v, want the close error %v", err, errLogDied)
	}
}

// TestKVWALLogsWrites: Figure 9's app logs each write transaction the
// worker loop runs on the engine directly, and nothing else — the
// store arms the capture, so the app has no logging step to forget.
func TestKVWALLogsWrites(t *testing.T) {
	cfg := Config{Structure: "kvwal", KeyRange: 64}.withDefaults()
	keys, err := workload.NewKeyDist(cfg.KeyDist, cfg.KeyRange)
	if err != nil {
		t.Fatal(err)
	}
	application, err := newApp(cfg, keys, workload.UpdateMix)
	if err != nil {
		t.Fatal(err)
	}
	a := application.(*kvApp)
	defer a.close()
	s := stm.New()
	if err := a.seed(s, rand.New(rand.NewPCG(1, 2))); err != nil {
		t.Fatal(err)
	}
	const writes = 10
	for i := 0; i < writes; i++ {
		for _, op := range []workload.Op{workload.OpInsert, workload.OpLookup} {
			d := opDesc{op: op, key: i, now: a.store.Now()}
			if err := s.Atomically(func(tx *stm.Tx) error { return a.step(tx, d) }); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := a.log.Close(); err != nil {
		t.Fatal(err)
	}
	if got := a.log.Stats().Records(); got != writes {
		t.Fatalf("%d records logged, want one per write transaction (%d)", got, writes)
	}
}
