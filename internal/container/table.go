package container

import (
	"hash/maphash"

	"repro/internal/stm"
)

// Table is the bucket array under Map: an array of bucket variables
// whose array *itself* lives in a Var, so a resize is just another
// write racing ordinary operations. Every operation reads the array
// variable first (one read-set entry) and then its bucket; a resize
// builds a fresh array of fresh bucket variables and writes the array
// variable — serializability then falls out of the STM: a resize that
// commits invalidates every concurrent operation still reading the old
// array, and an operation that commits first forces the resizing
// transaction to retry against the new contents.
//
// The element type E is one bucket's whole content; the Table never
// inspects it. What a bucket holds, how keys map to buckets and when
// the array grows are Map's business.
type Table[E any] struct {
	seed  maphash.Seed
	state *stm.Var[tableState[E]]
	// name, when non-empty, labels the table's variables (state and
	// every bucket, including buckets minted by a resize) for the STM
	// flight recorder, so conflict attribution names the table instead
	// of an anonymous stripe. All buckets share the one label: the
	// recorder aggregates by name, and "which table convoys" is the
	// question it answers.
	name string
}

// tableState is one committed version of the bucket array. The bucket
// variables live in the slice itself (stm.MakeVars), so n buckets cost
// one slice and one birth cell each, and a bucket read goes from the
// array straight to the bucket's locator. The slice is immutable after
// construction (a resize installs a brand-new slice), so the Var's
// default shallow clone is a correct private copy.
type tableState[E any] struct {
	buckets []stm.Var[E]
}

// Buckets is a transaction's view of a table's bucket array: a
// consistent snapshot of the array variable (not of the buckets'
// contents — reading those adds them to the read set one by one).
type Buckets[E any] struct {
	vars []stm.Var[E]
}

// Len is the bucket count of this version of the array.
func (b Buckets[E]) Len() int { return len(b.vars) }

// At returns bucket i's variable.
func (b Buckets[E]) At(i int) *stm.Var[E] { return &b.vars[i] }

// NewTable returns a table with n buckets (minimum 1), each holding
// E's zero value.
func NewTable[E any](n int) *Table[E] { return newTable[E]("", n) }

// newTable is NewTable with a flight-recorder label on every variable
// the table creates (see the name field).
func newTable[E any](name string, n int) *Table[E] {
	t := &Table[E]{seed: maphash.MakeSeed(), name: name}
	t.state = stm.NewNamedVar(name, tableState[E]{buckets: stm.MakeVars(name, make([]E, max(n, 1)))})
	return t
}

// Buckets reads the current bucket array inside tx. The array variable
// joins the read set, so a concurrent resize that commits aborts this
// transaction — the mechanism that makes resize serializable against
// every ordinary operation.
func (t *Table[E]) Buckets(tx *stm.Tx) (Buckets[E], error) {
	st, err := stm.Read(tx, t.state)
	if err != nil {
		return Buckets[E]{}, err
	}
	return Buckets[E]{vars: st.buckets}, nil
}

// peek returns the committed bucket array outside any transaction.
// Like Var.Peek it is a single-variable snapshot: the array is the one
// committed at some instant during the call, but reading the buckets'
// contents afterwards observes each bucket independently.
func (t *Table[E]) peek() Buckets[E] { return Buckets[E]{vars: t.state.Peek().buckets} }

// resize replaces the bucket array inside tx with fresh variables
// holding contents. The new variables are born with their contents
// rather than written to: they are unreachable until the array
// variable's write commits, so they cost the transaction no opens.
func (t *Table[E]) resize(tx *stm.Tx, contents []E) error {
	return stm.Write(tx, t.state, tableState[E]{buckets: stm.MakeVars(t.name, contents)})
}
