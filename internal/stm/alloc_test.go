package stm

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"
)

// TestTxDescriptorSize pins the per-attempt descriptor to the 32-byte
// allocation class. An eager writer's descriptor is allocated per
// attempt and stays reachable from every locator it installed until
// that object's next write, so a field added to Tx is paid per written
// object, indefinitely; owner-private state belongs on the session.
func TestTxDescriptorSize(t *testing.T) {
	if n := unsafe.Sizeof(Tx{}); n > 32 {
		t.Fatalf("unsafe.Sizeof(Tx{}) = %d, want <= 32", n)
	}
}

// TestCellSize pins a version's layout: a locator is an owner and a
// pre-image pointer, and a cell is that locator followed directly by
// the payload, so a pointer-sized payload's version is three words. A
// read-set entry is the object and the locator it saw.
func TestCellSize(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"locator", unsafe.Sizeof(locator{}), 16},
		{"cell[*int]", unsafe.Sizeof(cell[*int]{}), 24},
		{"cell[int]", unsafe.Sizeof(cell[int]{}), 24},
		{"readEntry", unsafe.Sizeof(readEntry{}), 16},
	} {
		if c.got != c.want {
			t.Errorf("unsafe.Sizeof(%s) = %d, want %d", c.name, c.got, c.want)
		}
	}
}

// TestAttemptAllocBudget pins absolute allocation counts for the
// attempt path on a pooled session in steady state: what DSTM's
// protocol makes unavoidable (one descriptor per writer attempt, one
// cell — a locator and its version — per object written) and nothing
// else.
func TestAttemptAllocBudget(t *testing.T) {
	s := New()
	counter := NewVar(0)
	reads := make([]*Var[int], 24)
	for i := range reads {
		reads[i] = NewVar(i)
	}
	readAll := func(tx *Tx) error {
		for _, v := range reads {
			if _, err := Read(tx, v); err != nil {
				return err
			}
		}
		return nil
	}
	run := func(fn func(tx *Tx) error) func() {
		return func() {
			if err := s.Atomically(fn); err != nil {
				t.Fatal(err)
			}
		}
	}
	incr := func(x int) int { return x + 1 }
	update := run(func(tx *Tx) error { return Update(tx, counter, incr) })
	var sink *Var[int]
	for _, c := range []struct {
		name string
		want float64
		fn   func()
	}{
		// descriptor + cell
		{"typed Update", 2, update},
		// the descriptor is recycled, the read set is the session's
		{"24 reads", 0, run(readAll)},
		{"24 reads + 1 write", 2, run(func(tx *Tx) error {
			if err := readAll(tx); err != nil {
				return err
			}
			return Update(tx, counter, incr)
		})},
		// the Var, and its birth cell
		{"NewVar", 2, func() { sink = NewVar(7) }},
	} {
		if got := testing.AllocsPerRun(500, c.fn); got != c.want {
			t.Errorf("%s: %.1f allocs per run, want %.0f", c.name, got, c.want)
		}
	}
	_ = sink

	// And in bytes: a 32 B descriptor and a 24 B cell (a 16 B locator
	// and the 8 B int).
	const runs = 2000
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		update()
	}
	runtime.ReadMemStats(&m1)
	if perOp := (m1.TotalAlloc - m0.TotalAlloc) / runs; perOp > 56 {
		t.Errorf("typed Update: %d B per transaction, want <= 56", perOp)
	}
}

// TestLargeReadSetNotRetained: a transaction with a huge read set and
// one eager write must leave nothing of the read set behind once it
// commits — not on its frozen descriptor (which the written variable's
// locator keeps reachable until the next write: the old per-attempt
// read map was pinned exactly so, a whole shard's worth after every
// Map.grow) and not on the pooled session (maxRetainedReads).
func TestLargeReadSetNotRetained(t *testing.T) {
	const n = 50_000
	s := New()
	written := NewVar(0)
	vars := make([]*Var[int], n)
	for i := range vars {
		vars[i] = NewVar(i)
	}
	big := func(tx *Tx) error {
		for _, v := range vars {
			if _, err := Read(tx, v); err != nil {
				return err
			}
		}
		return Update(tx, written, func(x int) int { return x + 1 })
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	if err := s.Atomically(big); err != nil {
		t.Fatal(err)
	}
	after := heap()
	// The read set of n entries is a map of a couple of megabytes.
	const slack = 64 << 10
	if after > before+slack {
		t.Fatalf("HeapAlloc grew %d B across a %d-read transaction, want <= %d", after-before, n, slack)
	}
	sess := s.acquire()
	if sess.overflow != nil {
		t.Fatalf("pooled session kept the overflow map of a %d-read transaction, cap is %d", n, maxRetainedReads)
	}
	s.release(sess)
	if got := written.Peek(); got != 1 {
		t.Fatalf("written = %d, want 1", got)
	}
	runtime.KeepAlive(vars)
}

// BenchmarkReadSet prices the read set at sizes on both sides of
// inlineReads: n distinct reads (each a failed lookup, then a record)
// followed by a repeated read of the first and of the last variable.
// It is the measurement inlineReads is chosen from — rerun it at
// candidate values before changing the constant.
func BenchmarkReadSet(b *testing.B) {
	for _, n := range []int{4, 16, 64, 1024} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			s := New()
			vars := make([]*Var[int], n)
			for i := range vars {
				vars[i] = NewVar(i)
			}
			fn := func(tx *Tx) error {
				for _, v := range vars {
					if _, err := Read(tx, v); err != nil {
						return err
					}
				}
				if _, err := Read(tx, vars[0]); err != nil {
					return err
				}
				_, err := Read(tx, vars[n-1])
				return err
			}
			b.ReportAllocs()
			for b.Loop() {
				if err := s.Atomically(fn); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
