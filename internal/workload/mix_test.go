package workload_test

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/workload"
)

func TestOpMixSampleFrequencies(t *testing.T) {
	m := workload.MixedMix
	rng := rand.New(rand.NewPCG(7, 9))
	counts := make(map[workload.Op]int)
	const n = 40000
	for i := 0; i < n; i++ {
		counts[m.Sample(rng)]++
	}
	want := map[workload.Op]float64{
		workload.OpLookup: 0.60,
		workload.OpInsert: 0.15,
		workload.OpDelete: 0.15,
		workload.OpRange:  0.10,
	}
	for op, p := range want {
		got := float64(counts[op]) / n
		if math.Abs(got-p) > 0.02 {
			t.Errorf("%v frequency %.3f, want %.2f±0.02", op, got, p)
		}
	}
}

// TestOpMixNames: the figures' presets keep the names points report,
// and a mix built from weights is named by them.
func TestOpMixNames(t *testing.T) {
	if got := workload.UpdateMix.Name(); got != "update" {
		t.Errorf("UpdateMix.Name() = %q", got)
	}
	if got := workload.MixedMix.Name(); got != "mixed" {
		t.Errorf("MixedMix.Name() = %q", got)
	}
	m, err := workload.NewOpMix(0.9, 0.05, 0.05, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Name(); got != "w:0.9,0.05,0.05,0" {
		t.Errorf("NewOpMix(0.9, 0.05, 0.05, 0).Name() = %q", got)
	}
	if got := (workload.OpMix{}).Name(); got != "" {
		t.Errorf("zero OpMix named %q, want empty", got)
	}
}

func TestOpMixUpdateNeverReads(t *testing.T) {
	m := workload.UpdateMix
	rng := rand.New(rand.NewPCG(3, 4))
	for i := 0; i < 5000; i++ {
		if op := m.Sample(rng); op != workload.OpInsert && op != workload.OpDelete {
			t.Fatalf("update mix drew %v", op)
		}
	}
}

func TestOpMixExplicitWeights(t *testing.T) {
	m, err := workload.NewOpMix(1, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(5, 6))
	counts := make(map[workload.Op]int)
	for i := 0; i < 10000; i++ {
		counts[m.Sample(rng)]++
	}
	if counts[workload.OpInsert] != 0 || counts[workload.OpDelete] != 0 {
		t.Fatalf("zero-weight ops drawn: %v", counts)
	}
	if counts[workload.OpLookup] == 0 || counts[workload.OpRange] == 0 {
		t.Fatalf("positive-weight ops never drawn: %v", counts)
	}
}

// TestOpMixRejectsBadNames: a mix is named by its weights, and
// weights that name no distribution are rejected.
func TestOpMixRejectsBadNames(t *testing.T) {
	for _, w := range [][4]float64{{-1, 0, 0, 0}, {0, 0, 0, 0}, {1, -0.5, 0, 0}} {
		if _, err := workload.NewOpMix(w[0], w[1], w[2], w[3]); err == nil {
			t.Errorf("NewOpMix(%v) accepted", w)
		}
	}
}
