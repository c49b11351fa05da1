package stm

import "errors"

// ErrAborted is returned by the typed accessors (Read, Write, Update
// and the rest) when the calling transaction has been aborted, either by an enemy transaction
// through its contention manager or by failed read-set validation.
// Transactional functions must propagate it so that Atomically can
// retry the transaction; wrapping it with fmt.Errorf("...: %w", err)
// is fine, Atomically unwraps with errors.Is.
var ErrAborted = errors.New("stm: transaction aborted")

// ErrHalted is returned when a transaction has been halted by failure
// injection (see Tx.Halt). A halted transaction never commits and never
// retries; it models the crashed thread of the paper's Section 6
// failure discussion.
var ErrHalted = errors.New("stm: transaction halted (failure injection)")
