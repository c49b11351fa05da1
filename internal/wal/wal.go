// Package wal is the durability subsystem: a group-committed,
// append-only log of committed kv write sets, plus point-in-time
// snapshots that truncate it.
//
// The write path is split in two so the STM's commit critical section
// stays short. Inside the commit window — while the committing
// writer still holds its write set's commit stripes — the store hands
// the write set to Append or AppendAsync, which give it the next log
// sequence number (LSN) and frame it (frame.go) into the log's pending
// buffer under a mutex; nothing of the caller's is kept. Because two
// writers that touched the same key serialize on a shared stripe, LSN
// order equals the per-key commit order, and the buffer reaches the
// disk in LSN order; a crash therefore durably keeps a prefix of the
// LSNs, which is per-key-prefix-closed — the property the conservation
// invariant needs (see DESIGN.md §Durability). The durability wait
// (Ticket.Wait) happens after the stripes are released.
//
// A single logger goroutine is clocked by the disk and by nothing else:
// the moment it is free and the pending buffer is not empty it takes
// the buffer, writes it once, fsyncs once, advances the durable
// watermark to the last LSN it carried and wakes the waiters. The
// group-commit window is therefore the fsync in flight: a lone writer
// pays exactly one fsync, and N concurrent writers share one because
// they queued behind the one before — so fsyncs per committed
// transaction shrink with the load, and no record ever waits on a
// timer. Append's ack means "on disk" and is positional (see Ticket);
// AppendAsync forgoes it for callers measuring logging overhead rather
// than fsync latency.
//
// Snapshots (Snapshot) rotate the log onto a fresh segment, stream the
// live state into a side file in chunks that a caller-supplied function
// cuts — each at a log position of its own, while appends continue —
// roll the chunks forward to one position by reading the log back,
// atomically rename the file into place, and reap the segments it
// covers. Recovery (Recover) loads the snapshot, replays the surviving
// segments in order from the record after that position, and truncates
// at the first bad frame of the final segment.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
)

// Options is what Open takes besides the directory. There is nothing
// left to tune: the log clocks itself off the disk.
type Options struct{}

// Ticket is the handle for one appended write set: the log and the
// record's LSN. The zero Ticket (an empty write set) is done.
//
// Acks are positional. The log keeps one durable watermark — the LSN up
// to which every record is written and fsynced — and a ticket is done
// once the watermark has reached its LSN, so when a ticket is done
// every earlier one is. A record refused for its size has no LSN of its
// own and carries its predecessor's, so it acks in its turn like any
// other. The first write or fsync failure stops the watermark for good:
// every LSN past it fails with the log's error, as does every append
// made afterwards. A caller holding several tickets in append order
// therefore loses nothing by waiting on the oldest only.
type Ticket struct {
	l   *Log
	lsn uint64 // top bit: refused (ErrRecordTooLarge)
}

// refused marks, in a ticket's LSN, a record dropped for its size; dead
// marks, in the watermark, a log that will never advance it again
// (failed or closed), which settles every ticket still waiting.
const refused, dead = 1 << 63, 1 << 63

// Done reports, without blocking, whether Wait would return at once.
func (t Ticket) Done() bool {
	return t.l == nil || t.l.mark.Load() >= t.lsn&^refused
}

// Wait blocks until the record is durably on disk (written and
// fsynced) and returns the sticky log error if it never will be.
func (t Ticket) Wait() error {
	if t.l == nil {
		return nil
	}
	lsn := t.lsn &^ refused
	mark := t.l.mark.Load()
	if mark < lsn {
		t.l.ackMu.Lock()
		for mark = t.l.mark.Load(); mark < lsn; mark = t.l.mark.Load() {
			t.l.acked.Wait()
		}
		t.l.ackMu.Unlock()
	}
	switch {
	case t.lsn&refused != 0:
		return ErrRecordTooLarge
	case mark&^dead >= lsn:
		return nil
	}
	return t.l.failure()
}

// Stats is a point-in-time snapshot of the log's counters.
type Stats struct {
	// Enqueued is the LSN of the last record accepted by Append or
	// AppendAsync; Durable is the watermark, the LSN up to which records
	// are written and fsynced. Their difference is what is committed in
	// memory and not yet promised to anyone.
	Enqueued, Durable uint64
	// Batches is the number of group-commit flushes.
	Batches int64
	// Fsyncs counts fsync syscalls on segment files: one per batch, so
	// it falls below Durable exactly when writers overlap.
	Fsyncs int64
	// Dropped counts records refused for exceeding MaxRecord.
	Dropped int64
	// Segment is the sequence number of the segment being written;
	// Segments is how many segment files the directory holds, which
	// grows until a snapshot completes and reaps them.
	Segment  uint64
	Segments int
	// Snapshots counts completed snapshots. SnapshotLast is how long the
	// latest took, rotation to rename; SnapshotTail is the number of
	// records all of them read back from the log to roll their chunks
	// forward.
	Snapshots    int64
	SnapshotLast time.Duration
	SnapshotTail int64
}

// Records is the number of write sets written and fsynced.
func (s Stats) Records() int64 { return int64(s.Durable) }

// QueueDepth is the number of records accepted but not yet durable — a
// depth that stays high means the disk cannot keep up with the commit
// rate.
func (s Stats) QueueDepth() int { return int(s.Enqueued - s.Durable) }

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

	mu     sync.Mutex
	work   sync.Cond  // on mu: the idle logger sleeps here
	buf    []byte     // framed records the logger has not taken, in LSN order
	lsn    uint64     // LSN of the last record framed into buf
	cuts   []rotation // rotations requested, by position in buf
	closed bool       // no more appends: Close was called, or the logger failed
	err    error      // sticky: first write/fsync failure poisons the log
	// flushHook, when set, runs in place of each flush's segment write +
	// fsync and is handed that step to call. Tests install one (see
	// export_test.go) to hold, delay or fail a flush; it is the only seam.
	flushHook func(writeSync func() error) error

	// mark is the durable watermark, plus the dead bit once the logger
	// has stopped. Only the logger stores to it, under ackMu, so that a
	// waiter cannot check it and go to sleep on acked in between.
	mark  atomic.Uint64
	ackMu sync.Mutex
	acked sync.Cond

	wg sync.WaitGroup

	// Logger-goroutine-private state.
	f   *os.File
	seq uint64

	batches atomic.Int64
	fsyncs  atomic.Int64
	dropped atomic.Int64
	curSeq  atomic.Uint64

	// fsyncLat distributes the wall time of segment fsyncs and
	// batchOps the records-per-flush batch sizes — together they show
	// whether group commit is amortizing the fsync cost it exists to
	// amortize. Written by the logger goroutine, snapshotted by anyone.
	fsyncLat obs.Histogram
	batchOps obs.Histogram

	snapshotting atomic.Bool
	// firstSeq is the oldest segment file not yet reaped; the rest are
	// Stats' snapshot counters.
	firstSeq     atomic.Uint64
	snapshots    atomic.Int64
	snapshotLast atomic.Int64 // ns
	snapshotTail atomic.Int64
}

// rotation is one requested segment switch: the position in the pending
// buffer it was ordered at, the LSN of the last record before it, and
// where the logger reports the outcome.
type rotation struct {
	off int
	lsn uint64
	res chan rotated // buffered: the logger never waits for the requester
}

type rotated struct {
	seq uint64
	err error
}

// Open creates (or opens) the log directory and starts the logger on
// a fresh segment numbered past every existing one — recovery never
// appends to a possibly-torn tail segment.
func Open(dir string, _ Options) (*Log, error) {
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
	l := &Log{dir: dir}
	l.firstSeq.Store(next)
	if len(segs) > 0 {
		l.firstSeq.Store(segs[0].seq)
	}
	l.work.L, l.acked.L = &l.mu, &l.ackMu
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
	enqueued := l.lsn
	l.mu.Unlock()
	return Stats{
		Enqueued: enqueued,
		Durable:  l.mark.Load() &^ dead,
		Batches:  l.batches.Load(),
		Fsyncs:   l.fsyncs.Load(),
		Dropped:  l.dropped.Load(),
		Segment:  l.curSeq.Load(),
		Segments: int(l.curSeq.Load() - l.firstSeq.Load() + 1),

		Snapshots:    l.snapshots.Load(),
		SnapshotLast: time.Duration(l.snapshotLast.Load()),
		SnapshotTail: l.snapshotTail.Load(),
	}
}

// Err returns the sticky log error: the first write or fsync failure,
// which poisons every later append. Nil while the log is healthy.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// failure is what a dead log refuses with, and what every ticket past
// its watermark fails with: the sticky error, or ErrClosed without one.
func (l *Log) failure() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failureLocked()
}

func (l *Log) failureLocked() error {
	if l.err != nil {
		return l.err
	}
	return ErrClosed
}

// FsyncLatency returns a snapshot of the fsync wall-time distribution.
func (l *Log) FsyncLatency() *metrics.Histogram { return l.fsyncLat.Snapshot() }

// BatchSizes returns a snapshot of the records-per-flush distribution
// (dimensionless counts, not durations).
func (l *Log) BatchSizes() *metrics.Histogram { return l.batchOps.Snapshot() }

// Append frames one committed write set into the log and returns a
// ticket to wait on. It never blocks on I/O — it is safe to call from
// inside the STM's commit window — and keeps nothing of ops: the caller
// may reuse the slice as soon as Append returns. An empty write set
// returns the zero Ticket.
func (l *Log) Append(ops []Op) Ticket {
	if len(ops) == 0 {
		return Ticket{}
	}
	l.mu.Lock()
	if l.closed {
		// Past the watermark for good: fails once the logger has stopped.
		t := Ticket{l, l.lsn + 1}
		l.mu.Unlock()
		return t
	}
	// The frame (see frame.go) is built in place: header reserved, payload
	// encoded behind it, length and CRC filled in once they are known.
	start := len(l.buf)
	l.buf = appendRecord(append(l.buf, make([]byte, frameHeader)...), ops)
	payload := l.buf[start+frameHeader:]
	if len(payload) > MaxRecord {
		// Refused here, acked in its turn: behind its predecessor.
		l.buf = l.buf[:start]
		t := Ticket{l, l.lsn | refused}
		l.mu.Unlock()
		l.dropped.Add(1)
		return t
	}
	binary.LittleEndian.PutUint32(l.buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(l.buf[start+4:], crc32.Checksum(payload, castagnoli))
	l.lsn++
	t := Ticket{l, l.lsn}
	l.mu.Unlock()
	l.work.Signal()
	return t
}

// AppendAsync is Append for callers that will never wait: the record
// reaches disk with the next flush, but the caller learns nothing of
// when (or, after a log error, whether).
func (l *Log) AppendAsync(ops []Op) { l.Append(ops) }

// maxSpare bounds the buffer capacity the log keeps between flushes, so
// one outsized record does not pin its size for the log's lifetime.
const maxSpare = 4 << 20

// run is the logger goroutine: whenever anything is pending it takes
// all of it — the records that queued behind the previous flush are the
// next batch — and flushes; it sleeps only on an empty log.
func (l *Log) run() {
	defer l.wg.Done()
	var buf []byte
	var cuts []rotation
	for {
		if cap(buf) > maxSpare {
			buf = nil
		}
		l.mu.Lock()
		for len(l.buf) == 0 && len(l.cuts) == 0 && !l.closed {
			l.work.Wait()
		}
		buf, l.buf = l.buf, buf[:0]
		cuts, l.cuts = l.cuts, cuts[:0]
		last, hook := l.lsn, l.flushHook
		l.mu.Unlock()
		var err error
		if len(buf) == 0 && len(cuts) == 0 { // closed and drained
			if err = l.f.Close(); err != nil {
				err = fmt.Errorf("wal: close segment %d: %w", l.seq, err)
			}
		} else if err = l.flush(buf, cuts, last, hook); err == nil {
			continue
		} else {
			l.f.Close() // the flush's error is the one to keep
		}
		l.stop(err)
		return
	}
}

// flush writes one batch in LSN order, splitting it at each rotation so
// that a rotation is ordered like a record: everything before it goes to
// the old segment first. A failure answers the rotations not yet made.
func (l *Log) flush(buf []byte, cuts []rotation, last uint64, hook func(func() error) error) error {
	off := 0
	for i, c := range cuts {
		err := l.writeSync(buf[off:c.off], c.lsn, hook)
		var seq uint64
		if err == nil {
			seq, err = l.rotateSegment()
		}
		if err != nil {
			for _, unmade := range cuts[i:] {
				unmade.res <- rotated{err: err}
			}
			return err
		}
		c.res <- rotated{seq: seq}
		off = c.off
	}
	return l.writeSync(buf[off:], last, hook)
}

// writeSync appends buf — the records up to LSN upTo — to the current
// segment, fsyncs it, moves the watermark there and wakes the waiters.
func (l *Log) writeSync(buf []byte, upTo uint64, hook func(func() error) error) error {
	if len(buf) == 0 {
		return nil
	}
	var err error
	if hook != nil {
		err = hook(func() error { return l.writeSegment(buf) })
	} else {
		err = l.writeSegment(buf)
	}
	if err != nil {
		return err
	}
	l.fsyncs.Add(1)
	l.batches.Add(1)
	l.batchOps.ObserveN(int64(upTo - l.mark.Load()))
	l.setMark(upTo)
	return nil
}

// writeSegment is the flush's I/O: one write, one fsync.
func (l *Log) writeSegment(buf []byte) error {
	if _, err := l.f.Write(buf); err != nil {
		return fmt.Errorf("wal: write segment %d: %w", l.seq, err)
	}
	t0 := time.Now()
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync segment %d: %w", l.seq, err)
	}
	l.fsyncLat.ObserveSince(t0)
	return nil
}

// setMark publishes a new watermark value and wakes every waiter.
func (l *Log) setMark(v uint64) {
	l.ackMu.Lock()
	l.mark.Store(v)
	l.ackMu.Unlock()
	l.acked.Broadcast()
}

// stop ends the logger: err, if it is the first, poisons the log — a
// log that cannot persist must not pretend otherwise — and the dead bit
// settles every ticket past the watermark, so nothing is left waiting on
// a logger that can no longer make progress.
func (l *Log) stop(err error) {
	l.mu.Lock()
	if l.err == nil {
		l.err = err
	}
	l.closed = true
	err = l.failureLocked()
	cuts := l.cuts
	l.buf, l.cuts = nil, nil
	l.mu.Unlock()
	for _, c := range cuts {
		c.res <- rotated{err: err}
	}
	l.setMark(l.mark.Load() | dead)
}

// Rotate closes the current segment and starts the next one,
// ordered after every record appended before it. It returns the
// sequence number of the new segment.
func (l *Log) Rotate() (uint64, error) {
	seq, _, err := l.rotateMarked()
	return seq, err
}

// rotateMarked is Rotate plus the LSN at the moment the rotation was
// ordered: every record up to mark lands in a segment below the
// returned one; any record past it may share the new segment.
func (l *Log) rotateMarked() (seq, mark uint64, err error) {
	l.mu.Lock()
	if l.closed {
		err := l.failureLocked()
		l.mu.Unlock()
		return 0, 0, err
	}
	c := rotation{off: len(l.buf), lsn: l.lsn, res: make(chan rotated, 1)}
	l.cuts = append(l.cuts, c)
	l.mu.Unlock()
	l.work.Signal()
	r := <-c.res
	return r.seq, c.lsn, r.err
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

// Close flushes everything appended, fsyncs, and stops the logger.
// Appends racing Close may be refused with ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
	l.work.Signal()
	l.wg.Wait()
	return l.Err()
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
