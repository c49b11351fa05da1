// Package txescape is the txescape analyzer's fixture: descriptor
// handles leaking into longer-lived storage (flagged), stack-local
// use (clean), and //stm:escape suppressions.
package txescape

import (
	"repro/internal/stm"
)

var s = stm.New()

type holder struct {
	tx *stm.Tx
}

var global *stm.Tx

func use(...any) {}

func stores(h *holder, ch chan *stm.Tx, m map[int]*stm.Tx, list []*stm.Tx) {
	_ = s.Atomically(func(tx *stm.Tx) error {
		h.tx = tx               // want `\*stm\.Tx stored in a struct field`
		global = tx             // want `\*stm\.Tx stored in a package-level variable`
		m[0] = tx               // want `\*stm\.Tx stored in a map or slice element`
		ch <- tx                // want `\*stm\.Tx sent on a channel`
		list = append(list, tx) // want `\*stm\.Tx appended to a slice`
		hs := holder{tx: tx}    // want `\*stm\.Tx stored in a composite literal`
		all := []*stm.Tx{tx}    // want `\*stm\.Tx stored in a composite literal`
		use(hs, all, list)
		return nil
	})
}

func goroutines() {
	_ = s.Atomically(func(tx *stm.Tx) error {
		go use(tx) // want `\*stm\.Tx passed to a spawned goroutine`
		go func() {
			_ = tx.Timestamp() // want `\*stm\.Tx captured by a goroutine`
		}()
		return nil
	})
}

// clean: a descriptor may flow through locals, plain calls and
// returns — only storage that outlives the frame is an escape.
func clean(tx *stm.Tx) *stm.Tx {
	cur := tx
	use(cur)
	helper(cur)
	return cur
}

func helper(tx *stm.Tx) { use(tx) }

// suppressed: a deliberate escape — here a test's probe that parks the
// attempt's descriptor while the body stays blocked — carries a reason.
type probe struct{ victim *stm.Tx }

func (p *probe) arm(tx *stm.Tx) {
	//stm:escape(fixture: the body blocks until the probe is done with the descriptor)
	p.victim = tx
}
