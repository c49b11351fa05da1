package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// A snapshot file is a header frame followed by record frames of the
// checkpointed live entries, in the shared frame format. The header
// payload is a magic string plus the base segment sequence: replay
// after loading the snapshot starts at that segment (everything
// below it is covered by the checkpoint). The tmp file is fsynced
// before the rename and the directory after, so a visible
// snapshot.kvs is always complete — a bad frame inside one is real
// corruption, not a torn write, and recovery refuses to guess.

const snapshotMagic = "stmkv-snapshot-v1"

// snapshotBatch is how many ops go into one record frame of the
// snapshot body; it bounds encoder buffer growth, nothing more.
const snapshotBatch = 1024

// maxSnapshotRedos bounds how often Snapshot re-rotates and re-cuts
// when writes keep slipping between the rotation and the checkpoint.
// The cut itself is a whole-store read that only succeeds in a lull,
// so a lull long enough for the cut is normally long enough to pass
// the slip check on the same attempt.
const maxSnapshotRedos = 8

// ErrSnapshotContended is returned by Snapshot when every attempt had
// a write land between the rotation and the checkpoint cut; the log
// is unchanged (beyond rotations) and the caller may simply retry
// later, as a scheduled BGSAVE does.
var ErrSnapshotContended = fmt.Errorf("wal: snapshot: writes kept arriving between rotation and cut")

// Snapshot cuts a checkpoint and truncates the log: rotate onto a
// fresh segment, call cut for a consistent dump of the live state,
// write it side-by-side, atomically rename it into place, then reap
// every segment the checkpoint covers. Snapshots are single-flight
// (ErrSnapshotInProgress) and order with concurrent appends via the
// rotation: the checkpoint plus segments >= its base reproduce
// exactly the logged history.
//
// cut runs outside the logger goroutine and may take as long as it
// needs; appends continue into the new segment meanwhile. A write
// that commits after the rotation but before the cut's serialization
// point would be both in the checkpoint and in a surviving segment —
// harmless for absolute-valued records, but a replayed list push or
// pop is a delta and would corrupt the restored list. Snapshot
// therefore detects any append accepted after the rotation (the LSN
// has moved past the one the rotation was ordered at) once the cut
// returns, and
// redoes the rotate+cut rather than publish an overlapping
// checkpoint. Appends racing the check only ever cause a spurious
// redo, never an overlap: a record enqueued after the cut's
// serialization point is absent from the checkpoint either way.
func (l *Log) Snapshot(cut func() ([]Op, error)) error {
	if !l.snapshotting.CompareAndSwap(false, true) {
		return ErrSnapshotInProgress
	}
	defer l.snapshotting.Store(false)
	for redo := 0; ; redo++ {
		base, mark, err := l.rotateMarked()
		if err != nil {
			return err
		}
		ops, err := cut()
		if err != nil {
			return fmt.Errorf("wal: snapshot cut: %w", err)
		}
		if l.Stats().Enqueued != mark {
			if redo == maxSnapshotRedos {
				return ErrSnapshotContended
			}
			continue
		}
		if err := writeSnapshot(l.dir, base, ops); err != nil {
			return err
		}
		// The checkpoint covers everything below the rotated-to
		// segment. Reaping is cleanup, not correctness: a crash before
		// it leaves segments recovery skips by base comparison.
		return reapSegments(l.dir, base-1)
	}
}

// writeSnapshot writes a complete snapshot file atomically.
func writeSnapshot(dir string, base uint64, ops []Op) error {
	tmp := filepath.Join(dir, snapshotTemp)
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: snapshot tmp: %w", err)
	}
	defer os.Remove(tmp) // no-op after the rename succeeds
	w := bufio.NewWriterSize(f, 1<<20)

	header := append([]byte(snapshotMagic), 0)
	header = binary.AppendUvarint(header, base)
	var buf []byte
	if _, err := w.Write(appendFrame(buf[:0], header)); err != nil {
		f.Close()
		return fmt.Errorf("wal: snapshot write: %w", err)
	}
	var payload []byte
	for len(ops) > 0 {
		n := min(len(ops), snapshotBatch)
		payload = appendRecord(payload[:0], ops[:n])
		if len(payload) > MaxRecord {
			// Absurdly large single batch: fall back to one op per
			// frame; a single op past MaxRecord could never have been
			// logged in the first place.
			n = 1
			payload = appendRecord(payload[:0], ops[:1])
		}
		if _, err := w.Write(appendFrame(buf[:0], payload)); err != nil {
			f.Close()
			return fmt.Errorf("wal: snapshot write: %w", err)
		}
		ops = ops[n:]
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("wal: snapshot flush: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: snapshot fsync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: snapshot close: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, snapshotName)); err != nil {
		return fmt.Errorf("wal: snapshot rename: %w", err)
	}
	return syncDir(dir)
}

// loadSnapshot streams the snapshot's op batches into apply and
// returns the base segment sequence. A missing snapshot returns
// (1, 0, nil): replay everything from the first segment.
func loadSnapshot(dir string, apply func([]Op) error) (base uint64, ops int, err error) {
	f, err := os.Open(filepath.Join(dir, snapshotName))
	if err != nil {
		if os.IsNotExist(err) {
			return 1, 0, nil
		}
		return 0, 0, fmt.Errorf("wal: open snapshot: %w", err)
	}
	defer f.Close()
	fr := &frameReader{r: bufio.NewReaderSize(f, 1<<20)}
	header, err := fr.next()
	if err != nil {
		return 0, 0, fmt.Errorf("wal: snapshot header: %w", err)
	}
	magic := append([]byte(snapshotMagic), 0)
	if len(header) < len(magic) || string(header[:len(magic)]) != string(magic) {
		return 0, 0, fmt.Errorf("wal: snapshot: bad magic")
	}
	base, n := binary.Uvarint(header[len(magic):])
	if n <= 0 || base == 0 {
		return 0, 0, fmt.Errorf("wal: snapshot: bad base segment")
	}
	for {
		payload, err := fr.next()
		if err == io.EOF {
			return base, ops, nil
		}
		if err != nil {
			return 0, 0, fmt.Errorf("wal: snapshot body: %w", err)
		}
		batch, err := decodeRecord(payload)
		if err != nil {
			return 0, 0, fmt.Errorf("wal: snapshot body: %w", err)
		}
		if err := apply(batch); err != nil {
			return 0, 0, err
		}
		ops += len(batch)
	}
}
