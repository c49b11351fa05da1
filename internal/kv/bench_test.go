package kv

import (
	"fmt"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/stm"
)

// BenchmarkStoreOps measures the store's singleton operations and the
// EXEC-shaped two-key transfer, parallel across pooled sessions — the
// per-operation cost floor under the striped commit protocol (keys are
// pre-spread so contention is the occasional bucket collision, as in
// the disjoint regime of the figures).
func BenchmarkStoreOps(b *testing.B) {
	const keySpace = 1024
	newStore := func() (*Store, []string) {
		s := stm.New(stm.WithManagerFactory(core.MustFactory("greedy")))
		st := New(s, WithShards(16), withBuckets(keySpace/16/2))
		keys := make([]string, keySpace)
		for i := range keys {
			keys[i] = fmt.Sprintf("key:%06d", i)
			if err := st.Set(keys[i], strconv.Itoa(i)); err != nil {
				b.Fatal(err)
			}
		}
		return st, keys
	}
	b.Run("get", func(b *testing.B) {
		st, keys := newStore()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				if _, _, err := st.Get(keys[i%keySpace]); err != nil {
					b.Error(err)
					return
				}
				i++
			}
		})
	})
	b.Run("set", func(b *testing.B) {
		st, keys := newStore()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				if err := st.Set(keys[i%keySpace], "v"); err != nil {
					b.Error(err)
					return
				}
				i++
			}
		})
	})
	b.Run("transfer", func(b *testing.B) {
		st, keys := newStore()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				from, to := keys[i%keySpace], keys[(i+7)%keySpace]
				err := st.Atomically(func(tx *stm.Tx, now int64) error {
					if _, err := st.IncrTx(tx, now, from, -1); err != nil {
						return err
					}
					_, err := st.IncrTx(tx, now, to, 1)
					return err
				})
				if err != nil {
					b.Error(err)
					return
				}
				i++
			}
		})
	})
}
