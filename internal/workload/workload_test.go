package workload_test

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/workload"
)

func TestUniformCoversUniverse(t *testing.T) {
	u, err := workload.NewUniform(16)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 1))
	seen := make(map[int]bool)
	for i := 0; i < 2000; i++ {
		k := u.Sample(rng)
		if k < 0 || k >= 16 {
			t.Fatalf("sample %d out of range", k)
		}
		seen[k] = true
	}
	if len(seen) != 16 {
		t.Fatalf("2000 samples covered %d/16 keys", len(seen))
	}
}

func TestUniformRejectsBadN(t *testing.T) {
	if _, err := workload.NewUniform(0); err == nil {
		t.Fatal("n=0 accepted")
	}
}

func TestZipfSkew(t *testing.T) {
	z, err := workload.NewZipf(64, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(2, 3))
	counts := make([]int, 64)
	const n = 20000
	for i := 0; i < n; i++ {
		k := z.Sample(rng)
		if k < 0 || k >= 64 {
			t.Fatalf("sample %d out of range", k)
		}
		counts[k]++
	}
	// Key 0 must dominate: with s=1.2 over 64 keys its mass is ~26%.
	if counts[0] < n/6 {
		t.Fatalf("hottest key got %d/%d samples; distribution not skewed", counts[0], n)
	}
	if counts[0] <= counts[32] {
		t.Fatalf("key 0 (%d) not hotter than key 32 (%d)", counts[0], counts[32])
	}
}

func TestZipfRejectsBadParams(t *testing.T) {
	if _, err := workload.NewZipf(0, 1); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := workload.NewZipf(8, 0); err == nil {
		t.Fatal("s=0 accepted")
	}
	if _, err := workload.NewZipf(8, math.NaN()); err == nil {
		t.Fatal("NaN accepted")
	}
}

func TestNewKeyDist(t *testing.T) {
	for _, name := range []string{"", "uniform", "zipf", "zipf:1.5"} {
		d, err := workload.NewKeyDist(name, 8)
		if err != nil {
			t.Fatalf("NewKeyDist(%q): %v", name, err)
		}
		if d.N() != 8 {
			t.Fatalf("NewKeyDist(%q).N() = %d", name, d.N())
		}
	}
	if _, err := workload.NewKeyDist("pareto", 8); err == nil {
		t.Fatal("unknown distribution accepted")
	}
	if _, err := workload.NewKeyDist("zipf:x", 8); err == nil {
		t.Fatal("bad zipf exponent accepted")
	}
}

func TestLengthDistributions(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 8))
	if got := (workload.Fixed{L: 3}).Sample(rng); got != 3 {
		t.Fatalf("fixed = %d", got)
	}
	if got := (workload.Fixed{L: 0}).Sample(rng); got != 1 {
		t.Fatalf("fixed floor = %d, want 1", got)
	}
	for i := 0; i < 200; i++ {
		got := (workload.UniformLength{Min: 2, Max: 5}).Sample(rng)
		if got < 2 || got > 5 {
			t.Fatalf("uniform length %d outside [2,5]", got)
		}
	}
	shorts, longs := 0, 0
	bi := workload.Bimodal{Short: 1, Long: 10, PLong: 0.3}
	for i := 0; i < 2000; i++ {
		switch bi.Sample(rng) {
		case 1:
			shorts++
		case 10:
			longs++
		default:
			t.Fatal("bimodal produced a third value")
		}
	}
	if longs == 0 || shorts == 0 {
		t.Fatalf("bimodal degenerate: %d/%d", shorts, longs)
	}
	if longs > shorts {
		t.Fatalf("p=0.3 produced more longs (%d) than shorts (%d)", longs, shorts)
	}
}

func TestSpecInstanceValid(t *testing.T) {
	keys, err := workload.NewZipf(5, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	spec := workload.Spec{
		Transactions: 6,
		Objects:      5,
		Keys:         keys,
		Lengths:      workload.UniformLength{Min: 1, Max: 4},
		AccessesPer:  3,
	}
	rng := rand.New(rand.NewPCG(9, 4))
	ins, err := spec.Instance(rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := ins.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(ins.Specs) != 6 || ins.Objects != 5 {
		t.Fatalf("instance shape wrong: %d specs, %d objects", len(ins.Specs), ins.Objects)
	}
	// Timestamps are a permutation of 0..n-1.
	seen := make(map[int]bool)
	for _, sp := range ins.Specs {
		if seen[sp.Timestamp] {
			t.Fatalf("duplicate timestamp %d", sp.Timestamp)
		}
		seen[sp.Timestamp] = true
	}
}

func TestSpecInstanceRejectsBadSpecs(t *testing.T) {
	keys, _ := workload.NewUniform(4)
	rng := rand.New(rand.NewPCG(1, 1))
	bad := []workload.Spec{
		{Transactions: 0, Objects: 4, Keys: keys, Lengths: workload.Fixed{L: 1}},
		{Transactions: 2, Objects: 5, Keys: keys, Lengths: workload.Fixed{L: 1}}, // N mismatch
		{Transactions: 2, Objects: 4, Keys: keys},                                // nil lengths
	}
	for i, sp := range bad {
		if _, err := sp.Instance(rng); err == nil {
			t.Errorf("spec %d accepted", i)
		}
	}
}

// TestQuickSpecInstancesSimulate: arbitrary workload instances
// validate and complete under greedy, satisfying pending-commit.
func TestQuickSpecInstancesSimulate(t *testing.T) {
	property := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, seed^0xf00d))
		keys, err := workload.NewZipf(3+int(rng.Int64N(3)), 0.5+rng.Float64())
		if err != nil {
			return false
		}
		spec := workload.Spec{
			Transactions: 2 + int(rng.Int64N(5)),
			Objects:      keys.N(),
			Keys:         keys,
			Lengths:      workload.Bimodal{Short: 1, Long: 5, PLong: 0.3},
			AccessesPer:  2,
		}
		ins, err := spec.Instance(rng)
		if err != nil {
			return false
		}
		if ins.Validate() != nil {
			return false
		}
		res, err := sched.Simulate(ins, core.MustFactory("greedy"), 0)
		if err != nil || !res.Completed {
			return false
		}
		return sched.CheckPendingCommit(res) < 0
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
