package workload

import (
	"fmt"
	"math/rand/v2"
)

// Op is one container operation kind drawn from an OpMix. How an Op
// maps onto a particular structure is the harness's business (a
// "range" on a hash set is a whole-set consistent scan; on a queue it
// is a prefix walk); the mix only fixes the frequencies.
type Op int

const (
	// OpLookup is a read-only point query (Contains / Get / Peek).
	OpLookup Op = iota
	// OpInsert adds an element (Add / Put / Enqueue).
	OpInsert
	// OpDelete removes an element (Remove / Delete / Dequeue).
	OpDelete
	// OpRange is a consistent multi-variable read (Range / Len / Items).
	OpRange
)

// String implements fmt.Stringer.
func (op Op) String() string {
	switch op {
	case OpLookup:
		return "lookup"
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	case OpRange:
		return "range"
	default:
		return fmt.Sprintf("op(%d)", int(op))
	}
}

// OpMix is a distribution over container operations. The zero OpMix
// is a fixed-workload figure's: it has no name and no app samples it.
// Mixes are the presets below or built from weights with NewOpMix.
type OpMix struct {
	name string
	// cum is the cumulative weight of [lookup, insert, delete, range],
	// normalized to cum[3] == 1.
	cum [4]float64
}

// newOpMix normalizes the weights into a sampleable mix.
func newOpMix(name string, lookup, insert, delete, rang float64) (OpMix, error) {
	w := [4]float64{lookup, insert, delete, rang}
	total := 0.0
	for _, x := range w {
		if x < 0 {
			return OpMix{}, fmt.Errorf("workload: negative op weight in %q", name)
		}
		total += x
	}
	if total <= 0 {
		return OpMix{}, fmt.Errorf("workload: op mix %q has no positive weight", name)
	}
	m := OpMix{name: name}
	run := 0.0
	for i, x := range w {
		run += x / total
		m.cum[i] = run
	}
	m.cum[3] = 1 // guard against rounding
	return m, nil
}

// NewOpMix returns the mix that draws lookups, inserts, deletes and
// range reads in proportion to the four weights, named by them
// ("w:8,1,1,0"). Weights must be non-negative, and one positive.
func NewOpMix(lookup, insert, delete, rang float64) (OpMix, error) {
	name := fmt.Sprintf("w:%g,%g,%g,%g", lookup, insert, delete, rang)
	return newOpMix(name, lookup, insert, delete, rang)
}

// mustOpMix builds the preset mixes; weights are compile-time
// constants, so failure is a programming error.
func mustOpMix(name string, lookup, insert, delete, rang float64) OpMix {
	m, err := newOpMix(name, lookup, insert, delete, rang)
	if err != nil {
		panic(err)
	}
	return m
}

// The figures' mixes. UpdateMix is the paper's workload (every
// transaction writes); MixedMix is mostly point reads with occasional
// consistent scans, so long readers compete with writers — the case
// the paper notes backoff-style managers handle poorly.
var (
	UpdateMix = mustOpMix("update", 0, 0.5, 0.5, 0)
	MixedMix  = mustOpMix("mixed", 0.60, 0.15, 0.15, 0.10)
)

// Sample draws one operation.
func (m OpMix) Sample(rng *rand.Rand) Op {
	u := rng.Float64()
	for i, c := range m.cum {
		if u < c {
			return Op(i)
		}
	}
	return OpRange
}

// Name identifies the mix in reports; it is empty for the zero OpMix.
func (m OpMix) Name() string { return m.name }
