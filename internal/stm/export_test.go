package stm

// WithCommitHook installs a function that runs inside every writer
// commit between read-set validation (and a lazy writer's acquisition)
// and the status CAS. Compiled
// into the test binary only: it lets serializability tests
// deterministically park one committing writer inside the window the
// striped commit protocol must keep exclusive, which on a single-CPU
// host no amount of goroutine timing can otherwise reach.
func WithCommitHook(f func()) Option {
	return func(s *STM) { s.commitHook = f }
}

// CommitUnbumped installs x on each of vars as the versions of one
// committed writer frozen between its status CAS and its commit-clock
// bump: the owner is committed, prev still points at the pre-image and
// the clock has not moved. No real commit stops there for long, but a
// reader that runs inside that window is what an opacity test needs to
// hold still.
func CommitUnbumped[T any](x T, vars ...*Var[T]) {
	w := &Tx{}
	w.status.Store(int32(StatusCommitted))
	for _, v := range vars {
		l := newCell(x, w)
		l.prev.Store(v.obj.loc.Load().base())
		v.obj.loc.Store(l)
	}
}
