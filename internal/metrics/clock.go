package metrics

import "time"

// epoch anchors Mono's readings.
var epoch = time.Now()

// Mono reads the monotonic clock: the time since the process started.
// A reading costs one clock read where time.Now costs two (it reads the
// wall clock as well), so per-operation latencies are timed with it:
// the difference of two readings is the time between them.
func Mono() time.Duration { return time.Since(epoch) }
