package stm

// WithCommitHook installs a function that runs inside every writer
// commit between read-set validation and the status CAS. Compiled
// into the test binary only: it lets serializability tests
// deterministically park one committing writer inside the window the
// striped commit protocol must keep exclusive, which on a single-CPU
// host no amount of goroutine timing can otherwise reach.
func WithCommitHook(f func()) Option {
	return func(s *STM) { s.commitHook = f }
}
