package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// A snapshot file is a header frame followed by record frames, in the
// shared frame format: first the live entries as the cut's chunks
// emitted them, then the roll-forward — the logged ops that postdate
// their key's chunk, in log order — which together are the state at one
// log position. The header payload is a magic string, a zero byte and
// two fixed-width little-endian u64s: base, the first segment the
// snapshot does not cover, and skip, the number of records at the head
// of segment base that it does (the records up to its position; see
// Snapshot). Replay after loading starts skip records into segment
// base. A v1 file carries the base alone, as a uvarint, and covers no
// record of its base segment; it still loads. A v1 reader meeting a v2
// file fails on the magic: there is no downgrade across a snapshot.
//
// The tmp file is fsynced before the rename and the directory after, so
// a visible snapshot.kvs is always complete — a bad frame inside one is
// real corruption, not a torn write, and recovery refuses to guess.

const (
	snapshotMagic   = "stmkv-snapshot-v2"
	snapshotMagicV1 = "stmkv-snapshot-v1"
)

// snapshotBatch is how many ops go into one record frame of the
// snapshot body; it bounds encoder buffer growth, nothing more.
const snapshotBatch = 1024

// Cut is what a snapshot's cut function reports once it has emitted
// every chunk: what the roll-forward needs to turn chunks cut at
// different log positions into the state at one.
type Cut struct {
	// UpTo is the log position the snapshot is rolled forward to: the
	// highest position any chunk was cut at (zero when there were no
	// chunks, which stands for the position of the rotation).
	UpTo uint64
	// Reflected reports whether op, logged at position lsn, is already
	// in the chunk that holds its key — that chunk was cut at lsn or
	// later. The roll-forward appends exactly the ops that are not.
	Reflected func(op Op, lsn uint64) bool
}

// Snapshot cuts a checkpoint and truncates the log. It rotates onto a
// fresh segment, noting the position mark of the last record before it;
// calls cut, which emits the live state in chunks, each a consistent
// read of part of the state at a log position of its own that the
// caller knows exactly (every record up to it that touches the chunk is
// in it, none after is); waits for the highest of those positions,
// UpTo, to be durable; reads the records in (mark, UpTo] back from the
// new segments and appends the ops their chunks do not reflect; then
// publishes the file by rename and reaps every segment below the
// rotated-to one. Chunks plus roll-forward are the state at UpTo, so
// recovery loads the file and replays the log from the record after
// UpTo — the header says how many records of the base segment that
// skips. Appends never wait for any of this and may land anywhere in
// it: a record at or below UpTo is in the file, one above is replayed,
// none is both.
//
// Snapshots are single-flight (ErrSnapshotInProgress). A failure at any
// step leaves the previous snapshot and every segment in place.
func (l *Log) Snapshot(cut func(emit func([]Op) error) (Cut, error)) error {
	if !l.snapshotting.CompareAndSwap(false, true) {
		return ErrSnapshotInProgress
	}
	defer l.snapshotting.Store(false)
	start := time.Now()
	base, mark, err := l.rotateMarked()
	if err != nil {
		return err
	}
	w, err := newSnapshotWriter(l.dir)
	if err != nil {
		return err
	}
	defer w.discard() // no-op once published
	c, err := cut(w.emit)
	if err != nil {
		return fmt.Errorf("wal: snapshot cut: %w", err)
	}
	upTo := max(c.UpTo, mark)
	if enq := l.Stats().Enqueued; upTo > enq {
		return fmt.Errorf("wal: snapshot cut at position %d, log ends at %d", upTo, enq)
	}
	if err := (Ticket{l, upTo}).Wait(); err != nil {
		return err
	}
	err = readRecords(l.dir, base, upTo-mark, func(i uint64, ops []Op) error {
		newer := ops[:0]
		for _, op := range ops {
			if !c.Reflected(op, mark+1+i) {
				newer = append(newer, op)
			}
		}
		return w.emit(newer)
	})
	if err != nil {
		return fmt.Errorf("wal: snapshot roll-forward: %w", err)
	}
	if err := w.publish(base, upTo-mark); err != nil {
		return err
	}
	l.snapshots.Add(1)
	l.snapshotTail.Add(int64(upTo - mark))
	l.snapshotLast.Store(int64(time.Since(start)))
	// The checkpoint covers everything below the rotated-to segment.
	// Reaping is cleanup, not correctness: a crash before it leaves
	// segments recovery skips by base comparison.
	if err := reapSegments(l.dir, base-1); err != nil {
		return err
	}
	l.firstSeq.Store(base)
	return nil
}

// readRecords calls fn with the first n records of the log from segment
// base on, in order, numbered from zero. The records must be durable:
// the logger may be appending behind them, never among them.
func readRecords(dir string, base, n uint64, fn func(i uint64, ops []Op) error) error {
	if n == 0 {
		return nil
	}
	segs, err := listSegments(dir)
	if err != nil {
		return err
	}
	var i uint64
	for _, sf := range segs {
		if sf.seq < base {
			continue
		}
		f, err := os.Open(sf.path)
		if err != nil {
			return err
		}
		fr := &frameReader{r: bufio.NewReaderSize(f, 1<<20)}
		for i < n {
			payload, err := fr.next()
			if err == io.EOF {
				break
			}
			var ops []Op
			if err == nil {
				ops, err = decodeRecord(payload)
			}
			if err == nil {
				err = fn(i, ops)
			}
			if err != nil {
				f.Close()
				return fmt.Errorf("segment %d: %w", sf.seq, err)
			}
			i++
		}
		f.Close()
		if i == n {
			return nil
		}
	}
	return fmt.Errorf("log holds %d records from segment %d on, want %d", i, base, n)
}

// snapshotWriter streams a snapshot into the side file.
type snapshotWriter struct {
	dir     string
	f       *os.File
	w       *bufio.Writer
	pending []Op   // emitted, not yet framed
	payload []byte // encoder scratch
	frame   []byte
}

// newSnapshotWriter creates the side file with a placeholder header:
// base and skip are known only once the cut and the roll-forward are
// done, and are written over it by publish.
func newSnapshotWriter(dir string) (*snapshotWriter, error) {
	f, err := os.OpenFile(filepath.Join(dir, snapshotTemp), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: snapshot tmp: %w", err)
	}
	w := &snapshotWriter{dir: dir, f: f, w: bufio.NewWriterSize(f, 1<<20)}
	if _, err := w.w.Write(snapshotHeader(0, 0)); err != nil {
		w.discard()
		return nil, fmt.Errorf("wal: snapshot write: %w", err)
	}
	return w, nil
}

// snapshotHeader is the v2 header frame; its length does not depend on
// the values.
func snapshotHeader(base, skip uint64) []byte {
	payload := append([]byte(snapshotMagic), 0)
	payload = binary.LittleEndian.AppendUint64(payload, base)
	payload = binary.LittleEndian.AppendUint64(payload, skip)
	return appendFrame(nil, payload)
}

// emit appends ops to the snapshot body, keeping nothing of the slice.
func (w *snapshotWriter) emit(ops []Op) error {
	w.pending = append(w.pending, ops...)
	if len(w.pending) < snapshotBatch {
		return nil
	}
	return w.flushPending()
}

// flushPending frames everything emitted so far, snapshotBatch ops to a
// frame.
func (w *snapshotWriter) flushPending() error {
	for ops := w.pending; len(ops) > 0; {
		n := min(len(ops), snapshotBatch)
		if err := w.writeFrame(ops[:n]); err != nil {
			return err
		}
		ops = ops[n:]
	}
	clear(w.pending) // let go of the strings
	w.pending = w.pending[:0]
	return nil
}

func (w *snapshotWriter) writeFrame(ops []Op) error {
	w.payload = appendRecord(w.payload[:0], ops)
	if len(w.payload) > MaxRecord && len(ops) > 1 {
		// Absurdly large batch: fall back to one op per frame; a single
		// op past MaxRecord could never have been logged in the first
		// place.
		for i := range ops {
			if err := w.writeFrame(ops[i : i+1]); err != nil {
				return err
			}
		}
		return nil
	}
	w.frame = appendFrame(w.frame[:0], w.payload)
	if _, err := w.w.Write(w.frame); err != nil {
		return fmt.Errorf("wal: snapshot write: %w", err)
	}
	return nil
}

// publish completes the file — the rest of the body, the real header,
// fsync — and renames it into place.
func (w *snapshotWriter) publish(base, skip uint64) error {
	if err := w.flushPending(); err != nil {
		return err
	}
	if err := w.w.Flush(); err != nil {
		return fmt.Errorf("wal: snapshot flush: %w", err)
	}
	if _, err := w.f.WriteAt(snapshotHeader(base, skip), 0); err != nil {
		return fmt.Errorf("wal: snapshot header: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("wal: snapshot fsync: %w", err)
	}
	f := w.f
	w.f = nil
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: snapshot close: %w", err)
	}
	tmp := filepath.Join(w.dir, snapshotTemp)
	if err := os.Rename(tmp, filepath.Join(w.dir, snapshotName)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: snapshot rename: %w", err)
	}
	return syncDir(w.dir)
}

// discard abandons an unpublished snapshot.
func (w *snapshotWriter) discard() {
	if w.f != nil {
		w.f.Close()
		w.f = nil
		os.Remove(filepath.Join(w.dir, snapshotTemp))
	}
}

// loadSnapshot streams the snapshot's op batches into apply and
// returns the base segment sequence and how many records at the head
// of that segment the snapshot already covers. A missing snapshot
// returns (1, 0, 0, nil): replay everything from the first segment.
func loadSnapshot(dir string, apply func([]Op) error) (base, skip uint64, ops int, err error) {
	f, err := os.Open(filepath.Join(dir, snapshotName))
	if err != nil {
		if os.IsNotExist(err) {
			return 1, 0, 0, nil
		}
		return 0, 0, 0, fmt.Errorf("wal: open snapshot: %w", err)
	}
	defer f.Close()
	fr := &frameReader{r: bufio.NewReaderSize(f, 1<<20)}
	header, err := fr.next()
	if err != nil {
		return 0, 0, 0, fmt.Errorf("wal: snapshot header: %w", err)
	}
	if base, skip, err = parseSnapshotHeader(header); err != nil {
		return 0, 0, 0, err
	}
	for {
		payload, err := fr.next()
		if err == io.EOF {
			return base, skip, ops, nil
		}
		if err != nil {
			return 0, 0, 0, fmt.Errorf("wal: snapshot body: %w", err)
		}
		batch, err := decodeRecord(payload)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("wal: snapshot body: %w", err)
		}
		if err := apply(batch); err != nil {
			return 0, 0, 0, err
		}
		ops += len(batch)
	}
}

var errSnapshotHeader = errors.New("wal: snapshot: bad header")

// parseSnapshotHeader reads a v2 header (base and skip, fixed width) or
// a v1 one (base alone, a uvarint).
func parseSnapshotHeader(header []byte) (base, skip uint64, err error) {
	rest, v2 := cutMagic(header, snapshotMagic)
	if v2 {
		if len(rest) != 16 {
			return 0, 0, errSnapshotHeader
		}
		base, skip = binary.LittleEndian.Uint64(rest), binary.LittleEndian.Uint64(rest[8:])
	} else if rest, v1 := cutMagic(header, snapshotMagicV1); v1 {
		n := 0
		if base, n = binary.Uvarint(rest); n <= 0 {
			return 0, 0, errSnapshotHeader
		}
	} else {
		return 0, 0, fmt.Errorf("wal: snapshot: bad magic")
	}
	if base == 0 {
		return 0, 0, errSnapshotHeader
	}
	return base, skip, nil
}

// cutMagic strips magic and its terminating zero byte from header.
func cutMagic(header []byte, magic string) ([]byte, bool) {
	if len(header) <= len(magic) || string(header[:len(magic)]) != magic || header[len(magic)] != 0 {
		return nil, false
	}
	return header[len(magic)+1:], true
}
