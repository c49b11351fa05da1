package container

import (
	"fmt"

	"repro/internal/stm"
)

// runCap is B, the most elements one run holds. BenchmarkDeque
// (-benchmem, median of 3, linux/amd64 on 2 vCPUs) and
// TestListHeapPerElement (kv) for each B:
//
//	B   pair/64            pair/100k  PeekFrontN(100)  Items/100k  heap/elem
//	8   1239 ns 343 B 7    1682 ns    3763 ns          9.7 ms      57.2 B
//	16  1300 ns 351 B 6    1720 ns    2540 ns          6.0 ms      36.7 B
//	32  1253 ns 403 B 6    1630 ns    2026 ns          4.5 ms      26.4 B
//	64  1411 ns 529 B 6    1618 ns    1561 ns          3.5 ms      23.3 B
//
// A pair is one push-back/pop-front transaction (ns, B and allocs per
// op). A one-value push copies its end run, so its bytes grow with B,
// while the per-run objects (the run, its three Vars and their cells)
// amortise over B. 32 is where the heap per element flattens: 64 saves
// 3 B an element and costs every push another 126 B of copying. A push
// of n values copies the end run once, not n times, and builds the
// rest into full runs: at B = 32, BenchmarkDeque's pushn/250 is about
// 10.6 µs, 4.9 KB and 68 allocs (pair/64 about 2.0 µs in the same
// runs).
const runCap = 32

// dRun is one run of the deque: 1..runCap elements in an immutable
// slice behind one Var, and the links to the neighbouring runs each
// behind their own. Like qNode, the struct itself is immutable after
// construction — every field is a *stm.Var — so runs are shared freely
// between transactions and the default shallow clone of *dRun is
// correct. A committed vals slice is never written through: a push
// writes a copy, a pop a reslice.
type dRun[T any] struct {
	vals *stm.Var[[]T]
	prev *stm.Var[*dRun[T]]
	next *stm.Var[*dRun[T]]
}

// link returns r's link toward the front end if front, else toward
// the back.
func (r *dRun[T]) link(front bool) *stm.Var[*dRun[T]] {
	if front {
		return r.prev
	}
	return r.next
}

// Deque is a transactional double-ended queue: both ends push and pop,
// and pushed at the back and popped at the front it is a FIFO. The
// elements live in a doubly linked chain of runs, each holding up to
// runCap of them behind one Var, so an element costs a slot in its
// run's slice and a share of the run's objects. Two permanent sentinel
// runs bracket the chain (left.next is the front run, right.prev the
// back run), so linking or unlinking a run is the same two link writes
// whether the deque is empty or not.
//
// A push of n values at one end writes one copy of that end's run
// filled with as many of them as fit, and links the rest in as new
// runs, full but for the outermost, that are born holding their
// elements and linked to each other: two link writes and one counter
// update, however large n is. The end run is not grown when it is full
// or is also the other end's run: a push never grows the run the
// other end is using, so once the deque has two runs a front push and
// a back push share no written object. A pop writes a reslice of its
// end run, and unlinks the run it empties. The ends therefore collide
// only when pops at both ends meet in one remaining run, or when a pop
// empties the deque's last run; under load a contention manager sees
// two queue-like convoys instead of one.
//
// Each end also keeps a net-push counter (pushes minus pops at that
// end, so either may go negative). Their sum is the length, giving
// Len a two-variable consistent read that does not walk the chain —
// and, because front operations write only the front counter and back
// operations only the back one, counting does not re-couple the ends.
type Deque[T any] struct {
	left  *dRun[T]
	right *dRun[T]
	fcnt  *stm.Var[int]
	bcnt  *stm.Var[int]
	// name, when non-empty, labels every variable the deque mints
	// (sentinel links, counters, and the slices and links of new runs)
	// for the STM flight recorder — conflict attribution then names the
	// deque ("list(jobs:pending)") instead of an anonymous stripe.
	name string
}

// NewDeque returns an empty deque.
func NewDeque[T any]() *Deque[T] { return NewNamedDeque[T]("") }

// NewNamedDeque is NewDeque with a flight-recorder label on every
// variable the deque creates. An empty name is NewDeque.
func NewNamedDeque[T any](name string) *Deque[T] {
	d := &Deque[T]{name: name}
	l := &dRun[T]{}
	r := &dRun[T]{}
	l.next = newVar(name, r)
	r.prev = newVar(name, l)
	d.left, d.right = l, r
	d.fcnt = newVar(name, 0)
	d.bcnt = newVar(name, 0)
	return d
}

// newVar mints one variable, labelled when name is non-empty.
func newVar[V any](name string, v V) *stm.Var[V] {
	if name == "" {
		return stm.NewVar(v)
	}
	return stm.NewNamedVar(name, v)
}

// end returns the sentinel at the front end if front, else at the
// back; its link into the deque (end(front).link(!front)) holds that
// end's run.
func (d *Deque[T]) end(front bool) *dRun[T] {
	if front {
		return d.left
	}
	return d.right
}

// counter returns the front end's counter if front, else the back's.
func (d *Deque[T]) counter(front bool) *stm.Var[int] {
	if front {
		return d.fcnt
	}
	return d.bcnt
}

// PushFront inserts vals at the front, one after another, so the last
// of them ends up frontmost: PushFront(tx, a, b, c) leaves c, b, a in
// front of the old front element.
func (d *Deque[T]) PushFront(tx *stm.Tx, vals ...T) error { return d.push(tx, vals, true) }

// PushBack inserts vals at the back, in order.
func (d *Deque[T]) PushBack(tx *stm.Tx, vals ...T) error { return d.push(tx, vals, false) }

// push inserts vals at the front end if front, else at the back. The
// first of them fill the end run when grow may; the rest go into new
// runs, full but for the outermost, that are born holding their
// elements and linked to each other, so they cost no opens. Two link
// writes splice the new chain in beside the end sentinel, and the end
// counter moves once.
func (d *Deque[T]) push(tx *stm.Tx, vals []T, front bool) error {
	if len(vals) == 0 {
		return nil
	}
	s := d.end(front)
	e, err := stm.Read(tx, s.link(!front))
	if err != nil {
		return err
	}
	k, err := d.grow(tx, e, vals, front)
	if err != nil {
		return err
	}
	if rest := vals[k:]; len(rest) > 0 {
		// The new runs sit between l and r in chain order.
		l, r := e, s
		if front {
			l, r = s, e
		}
		outer, inner := d.chain(l, r, rest, front)
		if !front {
			outer, inner = inner, outer
		}
		if err := stm.Write(tx, s.link(!front), outer); err != nil {
			return err
		}
		if err := stm.Write(tx, e.link(front), inner); err != nil {
			return err
		}
	}
	n := len(vals)
	return stm.Update(tx, d.counter(front), func(c int) int { return c + n })
}

// grow writes a copy of the end run e with as many of vals as fit
// added at its front end if front (each in turn, so the last ends up
// outermost), else at its back, and returns how many it added. It adds
// none when the deque is empty (e is the far sentinel), when e is
// full, or when e is also the other end's run: then the push links
// new runs, and a front push and a back push never write the same run.
func (d *Deque[T]) grow(tx *stm.Tx, e *dRun[T], vals []T, front bool) (int, error) {
	far := d.end(!front)
	if e == far {
		return 0, nil
	}
	inner, err := stm.Read(tx, e.link(!front))
	if err != nil || inner == far {
		return 0, err
	}
	old, err := stm.Read(tx, e.vals)
	if err != nil || len(old) == runCap {
		return 0, err
	}
	k := min(len(vals), runCap-len(old))
	grown := make([]T, len(old)+k)
	if front {
		reverseInto(grown, vals[:k])
		copy(grown[k:], old)
	} else {
		copy(grown, old)
		copy(grown[len(old):], vals[:k])
	}
	return k, stm.Write(tx, e.vals, grown)
}

// chain builds vals, pushed at the front end if front, else at the
// back, into new runs that go between the runs l and r, and returns
// the first and last of them in chain order. The runs are full but for
// the outermost, and every variable is born with its value, so nothing
// is opened until the caller links first and last in.
func (d *Deque[T]) chain(l, r *dRun[T], vals []T, front bool) (first, last *dRun[T]) {
	prev := l
	for len(vals) > 0 {
		// Runs are built left to right. At the back that is the order
		// vals were pushed in, and the last run takes the remainder;
		// at the front it is the reverse, and the first run does.
		size := min(runCap, len(vals))
		if front {
			size = (len(vals)-1)%runCap + 1
		}
		elems := make([]T, size)
		if front {
			reverseInto(elems, vals[len(vals)-size:])
			vals = vals[:len(vals)-size]
		} else {
			copy(elems, vals)
			vals = vals[size:]
		}
		run := &dRun[T]{vals: newVar(d.name, elems), prev: newVar(d.name, prev)}
		if prev == l {
			first = run
		} else {
			prev.next = newVar(d.name, run)
		}
		prev = run
	}
	prev.next = newVar(d.name, r)
	return first, prev
}

// reverseInto copies src into dst in reverse order.
func reverseInto[T any](dst, src []T) {
	for i, v := range src {
		dst[len(src)-1-i] = v
	}
}

// PopFront removes and returns the front element; ok is false (and the
// deque unchanged) when the deque is empty.
func (d *Deque[T]) PopFront(tx *stm.Tx) (v T, ok bool, err error) { return d.pop(tx, true) }

// PopBack removes and returns the back element; ok is false (and the
// deque unchanged) when the deque is empty.
func (d *Deque[T]) PopBack(tx *stm.Tx) (v T, ok bool, err error) { return d.pop(tx, false) }

// pop removes the element at the front end if front, else at the back:
// a reslice of the end run, or, for the run's last element, the two
// link writes that unlink the run.
func (d *Deque[T]) pop(tx *stm.Tx, front bool) (v T, ok bool, err error) {
	e, vals, err := d.endRun(tx, front)
	if err != nil || e == nil {
		return v, false, err
	}
	x := vals[len(vals)-1]
	if front {
		x = vals[0]
	}
	if len(vals) == 1 {
		err = d.unlink(tx, e, front)
	} else if front {
		err = stm.Write(tx, e.vals, vals[1:])
	} else {
		err = stm.Write(tx, e.vals, vals[:len(vals)-1])
	}
	if err != nil {
		return v, false, err
	}
	if err := stm.Update(tx, d.counter(front), func(c int) int { return c - 1 }); err != nil {
		return v, false, err
	}
	return x, true, nil
}

// unlink removes the emptied end run e from beside its end sentinel.
func (d *Deque[T]) unlink(tx *stm.Tx, e *dRun[T], front bool) error {
	inner, err := stm.Read(tx, e.link(!front))
	if err != nil {
		return err
	}
	s := d.end(front)
	if err := stm.Write(tx, s.link(!front), inner); err != nil {
		return err
	}
	return stm.Write(tx, inner.link(front), s)
}

// endRun reads the run at the front end if front, else at the back,
// and its elements; the run is nil when the deque is empty.
func (d *Deque[T]) endRun(tx *stm.Tx, front bool) (*dRun[T], []T, error) {
	e, err := stm.Read(tx, d.end(front).link(!front))
	if err != nil || e == d.end(!front) {
		return nil, nil, err
	}
	vals, err := stm.Read(tx, e.vals)
	if err != nil {
		return nil, nil, err
	}
	return e, vals, nil
}

// PeekFront returns the front element without removing it; ok is false
// when the deque is empty.
func (d *Deque[T]) PeekFront(tx *stm.Tx) (v T, ok bool, err error) {
	e, vals, err := d.endRun(tx, true)
	if err != nil || e == nil {
		return v, false, err
	}
	return vals[0], true, nil
}

// PeekBack returns the back element without removing it; ok is false
// when the deque is empty.
func (d *Deque[T]) PeekBack(tx *stm.Tx) (v T, ok bool, err error) {
	e, vals, err := d.endRun(tx, false)
	if err != nil || e == nil {
		return v, false, err
	}
	return vals[len(vals)-1], true, nil
}

// PeekFrontN returns up to n front elements without removing them — a
// bounded consistent prefix whose read set covers only the runs
// walked.
func (d *Deque[T]) PeekFrontN(tx *stm.Tx, n int) ([]T, error) {
	var out []T
	if n <= 0 {
		return out, nil
	}
	err := d.walk(tx, func(vals []T) bool {
		out = append(out, vals[:min(len(vals), n-len(out))]...)
		return len(out) < n
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// walk calls f with each run's elements, front to back, until f
// returns false or the chain ends.
func (d *Deque[T]) walk(tx *stm.Tx, f func([]T) bool) error {
	for cur := d.left; ; {
		next, err := stm.Read(tx, cur.next)
		if err != nil || next == d.right {
			return err
		}
		vals, err := stm.Read(tx, next.vals)
		if err != nil {
			return err
		}
		if !f(vals) {
			return nil
		}
		cur = next
	}
}

// Len returns the element count from the two end counters — a
// consistent two-variable read, independent of deque length.
func (d *Deque[T]) Len(tx *stm.Tx) (int, error) {
	f, err := stm.Read(tx, d.fcnt)
	if err != nil {
		return 0, err
	}
	b, err := stm.Read(tx, d.bcnt)
	if err != nil {
		return 0, err
	}
	return f + b, nil
}

// Items returns the elements front to back — a consistent snapshot of
// the whole deque.
func (d *Deque[T]) Items(tx *stm.Tx) ([]T, error) {
	var out []T
	err := d.walk(tx, func(vals []T) bool {
		out = append(out, vals...)
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// CheckInvariants verifies the deque's structural invariants inside
// tx: the forward walk and the backward walk visit the same runs in
// mirror order (every prev pointer agrees with the next pointer that
// reached the run), every run holds 1..runCap elements, and the end
// counters sum to the walked length. It is the audit hook the harness
// and the kv store run.
func (d *Deque[T]) CheckInvariants(tx *stm.Tx) error {
	var fwd []*dRun[T]
	total := 0
	for cur := d.left; ; {
		next, err := stm.Read(tx, cur.next)
		if err != nil {
			return err
		}
		if next == d.right {
			break
		}
		vals, err := stm.Read(tx, next.vals)
		if err != nil {
			return err
		}
		if len(vals) == 0 || len(vals) > runCap {
			return fmt.Errorf("container: deque run %d holds %d elements, want 1..%d", len(fwd), len(vals), runCap)
		}
		total += len(vals)
		fwd = append(fwd, next)
		cur = next
	}
	i := len(fwd)
	for cur := d.right; ; {
		prev, err := stm.Read(tx, cur.prev)
		if err != nil {
			return err
		}
		if prev == d.left {
			break
		}
		i--
		if i < 0 || fwd[i] != prev {
			return fmt.Errorf("container: deque prev chain disagrees with next chain")
		}
		cur = prev
	}
	if i != 0 {
		return fmt.Errorf("container: deque backward walk saw %d fewer runs", i)
	}
	n, err := d.Len(tx)
	if err != nil {
		return err
	}
	if n != total {
		return fmt.Errorf("container: deque counters say %d elements, walk found %d", n, total)
	}
	return nil
}
