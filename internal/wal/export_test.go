package wal

// SetFlushHook installs h in place of every later flush's segment write
// + fsync; h is handed that step and decides when, and whether, to run
// it. Compiled into the test binary only: it is how tests hold a flush
// (so that what queues behind it is known), delay one, or fail one
// without a failing disk.
func (l *Log) SetFlushHook(h func(writeSync func() error) error) {
	l.mu.Lock()
	l.flushHook = h
	l.mu.Unlock()
}

// HoldFlushes makes every flush wait for release to be closed before it
// touches the disk; entered reads once a flush is being held.
func (l *Log) HoldFlushes() (entered <-chan struct{}, release chan<- struct{}) {
	e, r := make(chan struct{}, 1), make(chan struct{})
	l.SetFlushHook(func(writeSync func() error) error {
		select {
		case e <- struct{}{}:
		default:
		}
		<-r
		return writeSync()
	})
	return e, r
}

// Rotations reports how many rotations are ordered and not yet taken by
// the logger.
func (l *Log) Rotations() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.cuts)
}
