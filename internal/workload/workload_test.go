package workload_test

import (
	"math"
	"math/rand/v2"
	"testing"

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
