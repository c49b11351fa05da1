package stm

import "unsafe"

// This file is the transactional API: Var[T] is the transactional
// object, and Read/Write/Update and friends hand callers T directly —
// no interface, no type assertions, no panic surface. Underneath, every
// Var embeds the same untyped core (tobj: locator slot, commit stripe,
// label) and each of its versions is a cell[T] whose head is the
// locator the engine works with, so one read set, one locator layout
// and one conflict protocol — everything the contention managers see —
// serve every payload type. Opening for writing performs exactly one
// allocation, the cell of the new version, and reads allocate nothing
// (TestAttemptAllocBudget).

// Cloner is a pluggable deep-copy strategy for a Var's payload. The
// returned value must not share mutable state with the argument:
// mutations of one must not be observable through the other. *Var
// handles are immutable and may be shared freely.
type Cloner[T any] func(T) T

// Var is a transactional variable holding a T: a shared handle whose
// versioned contents are accessed inside transactions with Read, Write
// and Update. Handles
// are immutable and safe to share between threads and to embed in
// other transactional payloads; the zero Var is not usable — create
// variables with NewVar (or its variants) or MakeVars.
//
// By default a transaction's private copy is made by plain assignment
// (a shallow copy): appropriate when T is plain data, or when
// any pointers, slices or maps inside T are treated as immutable.
// Payloads with mutable indirect state need NewVarCloner.
type Var[T any] struct {
	obj   tobj
	clone Cloner[T]
}

// cell is one version of a Var: its locator followed by its payload,
// in one allocation. Every version is made as a cell — the birth value
// (NewVar, MakeVars), an eager writer's tentative version and a lazy
// writer's buffered one (copyCell, or Write's whole-value constructor)
// — so writing an object costs one allocation, and a committed read
// loads the Var's slot and this cell only. The locator is the first
// field, so the engine's *locator is the cell's address and payload
// recovers the cell from it. The two halves can share a cell because
// they are needed for exactly the same span: while the locator is
// installed, and then as the next writer's pre-image (prev) until that
// writer commits and lets go. A read set's seen version pins the cell,
// and with it the locator's owner descriptor, only until the attempt
// ends. Folding the initial locator into the Var would instead keep it
// — and the birth value it carries — alive as long as the Var: in a
// Deque the birth value of a link is the neighbouring run, whose own
// links pin their birth neighbours, i.e. every popped run forever
// (TestDequeBoundedHeap; DESIGN.md §1).
type cell[T any] struct {
	loc locator
	val T
}

// newCell allocates a version holding val, owned by owner (nil for a
// birth value), and returns its locator.
func newCell[T any](val T, owner *Tx) *locator {
	c := &cell[T]{loc: locator{owner: owner}, val: val}
	return &c.loc
}

// payload returns the value of the version l, which must be the
// locator of a cell[T]: every locator of a Var[T] is one, since only
// the Var's own API makes them.
func payload[T any](l *locator) *T {
	return &(*cell[T])(unsafe.Pointer(l)).val
}

// copyCell is openWrite's constructor for a read-modify-write: a new
// version owned by owner holding a copy of base's payload, deepened by
// the Var's Cloner when one is installed.
func (v *Var[T]) copyCell(owner *Tx, base *locator) *locator {
	x := *payload[T](base)
	if v.clone != nil {
		x = v.clone(x)
	}
	return newCell(x, owner)
}

// open opens v for writing and returns the transaction's private
// version to modify in place.
func (v *Var[T]) open(tx *Tx) (*T, error) {
	l, err := v.obj.openWrite(tx, v.copyCell)
	if err != nil {
		return nil, err
	}
	return payload[T](l), nil
}

// NewVar creates a transactional variable whose initial committed
// value is v, with the shallow (assignment) clone strategy.
func NewVar[T any](v T) *Var[T] {
	va := &Var[T]{}
	va.init(v)
	return va
}

// MakeVars creates len(vals) transactional variables in one slice,
// each labelled name (as NewNamedVar; "" for none) and holding its
// element of vals, with the shallow clone strategy. The variables live
// in the slice, so n of them cost one allocation for the slice and one
// birth cell each, and a handle is &vars[i]; like any Var, an element
// must not be copied.
func MakeVars[T any](name string, vals []T) []Var[T] {
	vars := make([]Var[T], len(vals))
	for i, v := range vals {
		vars[i].obj.name = name
		vars[i].init(v)
	}
	return vars
}

// init makes v's birth cell and deals its commit stripe.
func (v *Var[T]) init(x T) {
	v.obj.stripe = nextStripe()
	v.obj.loc.Store(newCell(x, nil))
}

// NewVarCloner creates a transactional variable with a deep-copy
// strategy: clone is applied whenever a transaction takes a private
// copy of the value, so mutable state reached through pointers, slices
// or maps inside T stays private to the writer until commit. The
// initial value is cloned too — like Write, NewVarCloner never lets a
// committed version alias caller-owned mutable state.
func NewVarCloner[T any](v T, clone Cloner[T]) *Var[T] {
	va := NewVar(clone(v))
	va.clone = clone
	return va
}

// NewNamedVar creates a transactional variable with a debugging label
// reported by String. Names are for tests and debugging; the hot paths
// never touch them.
func NewNamedVar[T any](name string, v T) *Var[T] {
	va := NewVar(v)
	va.obj.name = name
	return va
}

// NewNamedVarCloner combines NewNamedVar and NewVarCloner: a
// transactional variable with both a debugging label and a deep-copy
// strategy. Like NewVarCloner, the initial value is cloned so the
// committed version never aliases caller-owned mutable state.
func NewNamedVarCloner[T any](name string, v T, clone Cloner[T]) *Var[T] {
	va := NewVarCloner(v, clone)
	va.obj.name = name
	return va
}

// String identifies the variable for debugging.
func (v *Var[T]) String() string { return v.obj.String() }

// Peek returns the current committed value outside any transaction.
// It is intended for post-run verification in tests and examples;
// concurrent use is safe but yields only a single-variable snapshot.
func (v *Var[T]) Peek() T { return *payload[T](v.obj.committed()) }

// Read records v's committed value in the transaction's read set and
// returns it. The returned value is a copy at T's top level, but any
// state it reaches through pointers, slices or maps is shared with the
// committed version and must be treated as immutable. A non-nil error
// means the transaction has been aborted or halted and must be
// propagated out of the transactional function.
func Read[T any](tx *Tx, v *Var[T]) (T, error) {
	l, err := v.obj.openRead(tx)
	if err != nil {
		var zero T
		return zero, err
	}
	return *payload[T](l), nil
}

// Write opens v for writing and sets the transaction's private version
// to x, which becomes the committed value if and only if the
// transaction commits. Because the whole value is replaced, Write
// skips the pre-image clone that Update pays for; the Var's Cloner
// (if any) is instead applied to x, so the private version never
// aliases caller-owned mutable state — without that copy, an in-place
// Update after the Write would mutate the caller's value and an
// abort-retry would replay against the corrupted input. The error
// contract is Read's.
func Write[T any](tx *Tx, v *Var[T], x T) error {
	if v.clone != nil {
		x = v.clone(x)
	}
	l, err := v.obj.openWrite(tx, func(owner *Tx, _ *locator) *locator { return newCell(x, owner) })
	if err != nil {
		return err
	}
	// Write-after-write: ownership was already ours, so openWrite
	// returned the existing private version; overwrite it in place.
	// (On fresh acquisition this re-stores the value just installed.)
	*payload[T](l) = x
	return nil
}

// Update opens v for writing and replaces the transaction's private
// version with f applied to it — the transactional read-modify-write.
// f receives the private copy (deepened by the Var's Cloner, if any),
// so it may mutate the value in place and return it; it must be free
// of side effects outside the transaction, since an abort retries the
// whole transactional function. The error contract is Read's.
func Update[T any](tx *Tx, v *Var[T], f func(T) T) error {
	p, err := v.open(tx)
	if err != nil {
		return err
	}
	*p = f(*p)
	return nil
}

// UpdateErr is the fallible form of Update for transitions that must
// themselves read other variables or otherwise fail: f receives the
// private copy and may return an error, in which case the private
// version is left unchanged and the error propagates out — Atomically
// then aborts the transaction once and surfaces the error to the
// caller unchanged (unless it is ErrAborted, which retries as usual,
// so f may simply propagate errors from nested Read calls):
//
//	err := stm.UpdateErr(tx, account, func(bal int) (int, error) {
//		limit, err := stm.Read(tx, creditLimit)
//		if err != nil {
//			return 0, err
//		}
//		if bal-amount < -limit {
//			return 0, ErrInsufficientFunds
//		}
//		return bal - amount, nil
//	})
func UpdateErr[T any](tx *Tx, v *Var[T], f func(T) (T, error)) error {
	p, err := v.open(tx)
	if err != nil {
		return err
	}
	nv, err := f(*p)
	if err != nil {
		return err
	}
	*p = nv
	return nil
}

// Swap opens v for writing, replaces the transaction's private version
// with x, and returns the value it replaced — the transactional
// exchange that container code (queue head/tail rotation, cache
// eviction) would otherwise spell as a Read followed by a Write of the
// same variable. The Var's Cloner (if any) is applied to x exactly as
// in Write. The error contract is Read's.
func Swap[T any](tx *Tx, v *Var[T], x T) (T, error) {
	if v.clone != nil {
		x = v.clone(x)
	}
	p, err := v.open(tx)
	if err != nil {
		var zero T
		return zero, err
	}
	old := *p
	*p = x
	return old, nil
}

// CompareAndSwap replaces v's value with new only if it currently
// equals old, reporting whether the swap happened. Unlike a hardware
// CAS it needs no retry loop — the transaction already isolates the
// compare from the swap — and a failed compare costs only a read, so
// it never acquires ownership (and hence never creates a write
// conflict) on the no-op path. The error contract is Read's.
func CompareAndSwap[T comparable](tx *Tx, v *Var[T], old, new T) (bool, error) {
	cur, err := Read(tx, v)
	if err != nil {
		return false, err
	}
	if cur != old {
		return false, nil
	}
	if err := Write(tx, v, new); err != nil {
		return false, err
	}
	return true, nil
}

// ReadAll records every variable's committed value in the
// transaction's read set and returns the values in argument order — a
// consistent multi-variable read: validation guarantees that some
// serial execution could have exhibited exactly these values
// simultaneously (a writer committing mid-scan aborts and retries the
// transaction). The error contract is Read's.
func ReadAll[T any](tx *Tx, vars ...*Var[T]) ([]T, error) {
	out := make([]T, len(vars))
	for i, v := range vars {
		val, err := Read(tx, v)
		if err != nil {
			return nil, err
		}
		out[i] = val
	}
	return out, nil
}

// Snapshot returns a consistent snapshot of the variables, taken in
// its own read-only transaction on a pooled session — the
// multi-variable counterpart of Peek, callable from any goroutine:
//
//	balances, err := stm.Snapshot(s, accounts...)
//
// Unlike looping Var.Peek, the values are guaranteed simultaneously
// valid: the transaction's serialization point is a commit-clock-
// stable scan of the read set.
func Snapshot[T any](s *STM, vars ...*Var[T]) ([]T, error) {
	return Atomic(s, func(tx *Tx) ([]T, error) {
		return ReadAll(tx, vars...)
	})
}
