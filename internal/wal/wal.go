// Package wal is the durability subsystem: a group-committed,
// append-only log of committed kv write sets, plus point-in-time
// snapshots that truncate it.
//
// The write path is split in two so the STM's commit critical section
// stays short. Inside the commit window — while the committing
// writer still holds its write set's commit stripes — the store
// enqueues the write set with Append or AppendAsync, which only
// appends to an in-memory queue under a mutex. Because two writers
// that touched the same key serialize on a shared stripe, the queue
// order equals the per-key commit order, and the logger preserves
// queue order on disk; a crash therefore durably keeps a prefix of
// the queue, which is per-key-prefix-closed — the property the
// conservation invariant needs (see DESIGN.md §Durability). The
// durability wait (Ticket.Wait) happens after the stripes are
// released.
//
// A single logger goroutine drains the queue: it lingers briefly
// (Options.GroupWindow) so concurrent commits coalesce, encodes the
// batch into CRC32C-framed records (frame.go), writes once and
// fsyncs once per batch — so fsyncs per committed transaction shrink
// with the batch depth — then acks every ticket in the batch, in
// queue order (see Ticket). Append's ack means "on disk"; a caller
// holding several tickets may run ahead and wait on the oldest only.
// AppendAsync forgoes the ack (and the wait) for callers measuring
// logging overhead rather than fsync latency.
//
// Snapshots (Snapshot) rotate the log onto a fresh segment, cut a
// consistent checkpoint through a caller-supplied function, write it
// to a side file, atomically rename it into place, and reap the
// segments the checkpoint covers. Recovery (Recover) loads the
// snapshot, replays the surviving segments in order, and truncates
// at the first bad frame of the final segment.
package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
)

// Options tunes a Log. The zero value gets sensible defaults.
type Options struct {
	// GroupWindow is how long the logger lingers after waking so
	// concurrent commits coalesce into one fsync. Zero defaults to
	// 500µs; negative disables lingering.
	GroupWindow time.Duration
	// SkipLinger is the queue depth at which the logger flushes
	// without lingering — the batch is already worth an fsync.
	// Zero defaults to 64.
	SkipLinger int
}

func (o *Options) withDefaults() {
	if o.GroupWindow == 0 {
		o.GroupWindow = 500 * time.Microsecond
	}
	if o.GroupWindow < 0 {
		o.GroupWindow = 0
	}
	if o.SkipLinger <= 0 {
		o.SkipLinger = 64
	}
}

// Ticket is the handle for one enqueued write set.
//
// Tickets ack in enqueue order: the logger flushes the queue in order
// and acks a batch front to back, a refused record (too large, or
// enqueued on a dead log) acks in its turn like any other, and the
// first write or fsync failure is sticky — it fails every ticket
// behind it. A caller holding several tickets in enqueue order
// therefore loses nothing by waiting on the oldest only: once a ticket
// is Done, so is every earlier one, and once one has failed with the
// log's error, none behind it will succeed.
type Ticket struct {
	ops    []Op
	done   chan struct{} // nil for AppendAsync's tickets: nobody can wait
	err    error
	rotate chan uint64 // non-nil marks a rotation control ticket
	mark   int64       // rotation tickets: append count at enqueue
}

// Wait blocks until the record is durably on disk (written and
// fsynced) and returns the sticky log error, if any.
func (t *Ticket) Wait() error {
	<-t.done
	return t.err
}

// Done reports, without blocking, whether Wait would return at once.
func (t *Ticket) Done() bool {
	select {
	case <-t.done:
		return true
	default:
		return false
	}
}

// ack settles the ticket with err (a refusal recorded earlier wins)
// and releases its waiter, if it can have one.
func (t *Ticket) ack(err error) {
	if t.err == nil {
		t.err = err
	}
	if t.done != nil {
		close(t.done)
	}
}

// Stats is a point-in-time snapshot of the log's counters.
type Stats struct {
	// Records is the number of write sets encoded and written.
	Records int64
	// Batches is the number of group-commit flushes.
	Batches int64
	// Fsyncs counts fsync syscalls on segment files. Group commit
	// exists to keep Fsyncs well below Records under load.
	Fsyncs int64
	// Dropped counts records refused for exceeding MaxRecord.
	Dropped int64
	// Segment is the sequence number of the segment being written.
	Segment uint64
	// QueueDepth is the number of tickets enqueued but not yet taken
	// by the logger — a sustained nonzero depth means the disk cannot
	// keep up with the commit rate.
	QueueDepth int
}

// ErrClosed is returned for appends after Close.
var ErrClosed = errors.New("wal: closed")

// ErrSnapshotInProgress is returned by Snapshot when another snapshot
// is still running; snapshots are single-flight.
var ErrSnapshotInProgress = errors.New("wal: snapshot in progress")

// Log is an append-only log in a directory: numbered segment files
// plus at most one snapshot file. One process owns a directory at a
// time; nothing enforces that, as with most single-node stores.
type Log struct {
	dir string
	opt Options

	mu      sync.Mutex
	pending []*Ticket
	closed  bool
	err     error // sticky: first write/fsync failure poisons the log

	kick chan struct{}
	wg   sync.WaitGroup

	// Logger-goroutine-private state.
	f        *os.File
	seq      uint64
	encBuf   []byte
	frameBuf []byte

	records atomic.Int64
	batches atomic.Int64
	fsyncs  atomic.Int64
	dropped atomic.Int64
	curSeq  atomic.Uint64

	// appends counts record tickets ever accepted into the queue (not
	// rotations). Snapshot compares it against the count stamped on
	// its rotation ticket to detect writes that slipped between the
	// rotation and the checkpoint cut — see Snapshot.
	appends atomic.Int64

	// fsyncLat distributes the wall time of segment fsyncs and
	// batchOps the records-per-flush batch sizes — together they show
	// whether group commit is amortizing the fsync cost it exists to
	// amortize. Written by the logger goroutine, snapshotted by anyone.
	fsyncLat obs.Histogram
	batchOps obs.Histogram

	snapshotting atomic.Bool
}

// Open creates (or opens) the log directory and starts the logger on
// a fresh segment numbered past every existing one — recovery never
// appends to a possibly-torn tail segment.
func Open(dir string, opt Options) (*Log, error) {
	opt.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	next := uint64(1)
	if n := len(segs); n > 0 {
		next = segs[n-1].seq + 1
	}
	l := &Log{dir: dir, opt: opt, kick: make(chan struct{}, 1)}
	f, err := l.createSegment(next)
	if err != nil {
		return nil, err
	}
	l.f, l.seq = f, next
	l.curSeq.Store(next)
	l.wg.Add(1)
	go l.run()
	return l, nil
}

// Dir returns the log directory.
func (l *Log) Dir() string { return l.dir }

// Stats returns a snapshot of the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	depth := len(l.pending)
	l.mu.Unlock()
	return Stats{
		Records:    l.records.Load(),
		Batches:    l.batches.Load(),
		Fsyncs:     l.fsyncs.Load(),
		Dropped:    l.dropped.Load(),
		Segment:    l.curSeq.Load(),
		QueueDepth: depth,
	}
}

// Err returns the sticky log error: the first write or fsync failure,
// which poisons every later append. Nil while the log is healthy.
func (l *Log) Err() error { return l.stickyErr() }

// FsyncLatency returns a snapshot of the fsync wall-time distribution.
func (l *Log) FsyncLatency() *metrics.Histogram { return l.fsyncLat.Snapshot() }

// BatchSizes returns a snapshot of the records-per-flush distribution
// (dimensionless counts, not durations).
func (l *Log) BatchSizes() *metrics.Histogram { return l.batchOps.Snapshot() }

// Append enqueues one committed write set for durable logging and
// returns a ticket to wait on. It never blocks on I/O — it is safe
// to call from inside the STM's commit window — and the caller must
// not mutate ops until the ticket is done. An empty write set
// returns nil.
func (l *Log) Append(ops []Op) *Ticket {
	if len(ops) == 0 {
		return nil
	}
	return l.enqueue(&Ticket{ops: ops, done: make(chan struct{})})
}

// AppendAsync enqueues one committed write set without an ack: the
// record reaches disk with the next batch, but the caller learns
// nothing of when (or, after a log error, whether). The ops slice is
// handed over and must not be reused.
func (l *Log) AppendAsync(ops []Op) {
	if len(ops) == 0 {
		return
	}
	l.enqueue(&Ticket{ops: ops})
}

func (l *Log) enqueue(t *Ticket) *Ticket {
	l.mu.Lock()
	if l.closed || l.err != nil {
		err := l.err
		l.mu.Unlock()
		if err == nil {
			err = ErrClosed
		}
		t.fail(err)
		return t
	}
	if t.rotate == nil {
		l.appends.Add(1)
	} else {
		t.mark = l.appends.Load()
	}
	l.pending = append(l.pending, t)
	l.mu.Unlock()
	select {
	case l.kick <- struct{}{}:
	default:
	}
	return t
}

// run is the logger goroutine: drain, linger, encode, write, fsync,
// ack — one pass per batch.
func (l *Log) run() {
	defer l.wg.Done()
	for {
		<-l.kick
		l.mu.Lock()
		n := len(l.pending)
		closed := l.closed
		l.mu.Unlock()
		if n == 0 && closed {
			return
		}
		if n == 0 {
			continue
		}
		if l.opt.GroupWindow > 0 && n < l.opt.SkipLinger && !closed {
			time.Sleep(l.opt.GroupWindow)
		}
		l.mu.Lock()
		batch := l.pending
		l.pending = nil
		l.mu.Unlock()
		l.flush(batch)
		// A concurrent enqueue between the drain and a consumed kick
		// would go unnoticed; re-kick ourselves if work remains.
		l.mu.Lock()
		again := len(l.pending) > 0 || l.closed
		l.mu.Unlock()
		if again {
			select {
			case l.kick <- struct{}{}:
			default:
			}
		}
	}
}

// flush writes one batch: records are encoded in queue order, written
// with one Write and one fsync, then acked in queue order — a record
// refused for its size waits its turn, so acks never overtake. Rotation
// tickets split the batch — everything before the rotation is flushed
// to the old segment first, so rotation is ordered like any other
// record.
func (l *Log) flush(batch []*Ticket) {
	buf := l.encBuf[:0]
	var acks []*Ticket
	records := int64(0) // of acks, how many are encoded in buf
	settle := func() {
		var err error
		if records > 0 {
			l.batchOps.ObserveN(records)
			if err = l.writeAndSync(buf); err != nil {
				l.poison(err)
			}
		}
		for _, t := range acks {
			t.ack(err)
		}
		buf, acks, records = buf[:0], acks[:0], 0
	}
	for _, t := range batch {
		if t.rotate != nil {
			settle()
			seq, err := l.rotateSegment()
			if err != nil {
				l.poison(err)
			}
			t.rotate <- seq
			t.ack(err)
			continue
		}
		payload := appendRecord(l.frameBuf[:0], t.ops)
		l.frameBuf = payload[:0]
		if len(payload) > MaxRecord {
			l.dropped.Add(1)
			t.err = ErrRecordTooLarge
		} else {
			buf = appendFrame(buf, payload)
			l.records.Add(1)
			records++
		}
		acks = append(acks, t)
	}
	settle()
	l.encBuf = buf[:0] // retain growth
}

// writeAndSync appends buf to the current segment and fsyncs it.
func (l *Log) writeAndSync(buf []byte) error {
	if err := l.stickyErr(); err != nil {
		return err
	}
	if _, err := l.f.Write(buf); err != nil {
		return fmt.Errorf("wal: write segment %d: %w", l.seq, err)
	}
	t0 := time.Now()
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync segment %d: %w", l.seq, err)
	}
	l.fsyncLat.ObserveSince(t0)
	l.fsyncs.Add(1)
	l.batches.Add(1)
	return nil
}

// poison records the first fatal error; every later append is refused
// with it. A log that cannot persist must not pretend otherwise.
func (l *Log) poison(err error) {
	if err == nil {
		return
	}
	l.mu.Lock()
	if l.err == nil {
		l.err = err
	}
	// Fail whatever queued behind the failure rather than letting
	// waiters hang on a logger that can no longer make progress.
	pending := l.pending
	l.pending = nil
	l.mu.Unlock()
	for _, t := range pending {
		t.fail(err)
	}
}

// fail acks a ticket with an error, keeping a refused rotation
// ticket's waiter from hanging on its sequence channel.
func (t *Ticket) fail(err error) {
	if t.rotate != nil {
		t.rotate <- 0
	}
	t.ack(err)
}

func (l *Log) stickyErr() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Rotate closes the current segment and starts the next one,
// ordered after every record enqueued before it. It returns the
// sequence number of the new segment.
func (l *Log) Rotate() (uint64, error) {
	seq, _, err := l.rotateMarked()
	return seq, err
}

// rotateMarked is Rotate plus the append count stamped at the moment
// the rotation entered the queue: every record ticket accepted before
// the rotation is ≤ mark and lands in a segment below the returned
// one; any append observed past mark may share the new segment.
func (l *Log) rotateMarked() (uint64, int64, error) {
	t := &Ticket{done: make(chan struct{}), rotate: make(chan uint64, 1)}
	l.enqueue(t)
	seq := <-t.rotate
	<-t.done
	return seq, t.mark, t.err
}

// rotateSegment runs on the logger goroutine.
func (l *Log) rotateSegment() (uint64, error) {
	if err := l.f.Sync(); err != nil {
		return l.seq, fmt.Errorf("wal: fsync segment %d: %w", l.seq, err)
	}
	if err := l.f.Close(); err != nil {
		return l.seq, fmt.Errorf("wal: close segment %d: %w", l.seq, err)
	}
	f, err := l.createSegment(l.seq + 1)
	if err != nil {
		return l.seq, err
	}
	l.f = f
	l.seq++
	l.curSeq.Store(l.seq)
	return l.seq, nil
}

// createSegment creates the numbered segment file and makes its
// directory entry durable.
func (l *Log) createSegment(seq uint64) (*os.File, error) {
	name := filepath.Join(l.dir, segmentName(seq))
	f, err := os.OpenFile(name, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: create segment: %w", err)
	}
	if err := syncDir(l.dir); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// Close flushes everything enqueued, fsyncs, and stops the logger.
// Appends racing Close may be refused with ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		l.wg.Wait()
		return l.err
	}
	l.closed = true
	l.mu.Unlock()
	select {
	case l.kick <- struct{}{}:
	default:
	}
	l.wg.Wait()
	err := l.f.Close()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err == nil && err != nil {
		l.err = fmt.Errorf("wal: close segment %d: %w", l.seq, err)
	}
	return l.err
}

// syncDir fsyncs a directory so renames and creates in it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: open dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: fsync dir: %w", err)
	}
	return nil
}
