// Package workload provides the benchmark harness's random-workload
// generators: key distributions (uniform and Zipf — contention in real
// systems is rarely uniform) and operation mixes.
package workload

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
)

// KeyDist samples keys in [0, N).
type KeyDist interface {
	// Sample draws one key.
	Sample(rng *rand.Rand) int
	// N is the key-universe size.
	N() int
	// Name identifies the distribution in reports.
	Name() string
}

// Uniform is the paper's workload: keys drawn uniformly from a small
// universe.
type Uniform struct {
	n int
}

// NewUniform returns a uniform distribution over [0, n).
func NewUniform(n int) (KeyDist, error) {
	if n <= 0 {
		return nil, fmt.Errorf("workload: uniform needs n > 0, got %d", n)
	}
	return &Uniform{n: n}, nil
}

// Sample implements KeyDist.
func (u *Uniform) Sample(rng *rand.Rand) int { return int(rng.Int64N(int64(u.n))) }

// N implements KeyDist.
func (u *Uniform) N() int { return u.n }

// Name implements KeyDist.
func (u *Uniform) Name() string { return "uniform" }

// Zipf samples keys with probability proportional to 1/(k+1)^s,
// concentrating contention on a few hot keys. Implemented with a
// precomputed CDF and binary search, so sampling is deterministic
// given the rng and exact for any n that fits in memory.
type Zipf struct {
	n   int
	s   float64
	cdf []float64
}

// NewZipf returns a Zipf distribution over [0, n) with exponent s > 0.
func NewZipf(n int, s float64) (*Zipf, error) {
	if n <= 0 {
		return nil, fmt.Errorf("workload: zipf needs n > 0, got %d", n)
	}
	if s <= 0 || math.IsNaN(s) || math.IsInf(s, 0) {
		return nil, fmt.Errorf("workload: zipf needs finite s > 0, got %g", s)
	}
	cdf := make([]float64, n)
	total := 0.0
	for k := 0; k < n; k++ {
		total += 1 / math.Pow(float64(k+1), s)
		cdf[k] = total
	}
	for k := range cdf {
		cdf[k] /= total
	}
	cdf[n-1] = 1 // guard against rounding
	return &Zipf{n: n, s: s, cdf: cdf}, nil
}

// Sample implements KeyDist.
func (z *Zipf) Sample(rng *rand.Rand) int {
	u := rng.Float64()
	return sort.SearchFloat64s(z.cdf, u)
}

// N implements KeyDist.
func (z *Zipf) N() int { return z.n }

// Name implements KeyDist.
func (z *Zipf) Name() string { return fmt.Sprintf("zipf(%g)", z.s) }
