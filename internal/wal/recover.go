package wal

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
)

// RecoverStats describes what a recovery found and did.
type RecoverStats struct {
	// SnapshotOps is the number of ops loaded from the snapshot.
	SnapshotOps int
	// Base is the first segment the snapshot does not cover; Skipped is
	// how many records at the head of it the snapshot does (they were
	// read past, not applied).
	Base    uint64
	Skipped uint64
	// Segments is how many segment files were replayed (even
	// partially).
	Segments int
	// Records and Ops count the write sets applied from the log and
	// their ops.
	Records int
	Ops     int
	// TruncatedBytes is how much of the final segment was discarded
	// at the first bad frame (a torn tail from the crash); zero when
	// the log ended cleanly.
	TruncatedBytes int64
}

// Recover rebuilds state from a log directory: load the snapshot (if
// any), then replay every segment the snapshot does not cover, in
// sequence order and starting after the records its header says it
// does, calling apply once per record — each call is one
// committed write set, in the original per-key commit order. A bad
// frame in the final segment is the expected torn tail of a crash:
// replay stops there and the tail is physically truncated, so the
// next recovery sees a clean log. A bad frame anywhere else is real
// corruption and fails recovery rather than silently dropping
// history that later segments build on.
//
// A missing or empty directory recovers to the empty state. Recover
// must run before Open — it may truncate the tail segment, and Open
// starts a fresh segment past every existing one.
func Recover(dir string, apply func([]Op) error) (RecoverStats, error) {
	var st RecoverStats
	if _, err := os.Stat(dir); os.IsNotExist(err) {
		st.Base = 1
		return st, nil
	}
	base, skip, snapOps, err := loadSnapshot(dir, apply)
	if err != nil {
		return st, err
	}
	st.Base, st.SnapshotOps = base, snapOps
	segs, err := listSegments(dir)
	if err != nil {
		return st, err
	}
	for i, sf := range segs {
		if sf.seq < base {
			// Covered by the snapshot; a leftover from a crash between
			// the snapshot rename and the reap.
			continue
		}
		last := i == len(segs)-1
		truncAt, err := replaySegment(sf.path, skip-st.Skipped, apply, &st)
		if err == nil {
			continue
		}
		if !errors.Is(err, errBadFrame) {
			return st, fmt.Errorf("wal: replay segment %d: %w", sf.seq, err)
		}
		if !last || st.Skipped < skip {
			// Only the newest segment can have a torn tail — writes
			// only ever went to the newest segment — and never among
			// records a snapshot was published after.
			return st, fmt.Errorf("wal: segment %d corrupt mid-log: %w", sf.seq, err)
		}
		info, statErr := os.Stat(sf.path)
		if statErr != nil {
			return st, fmt.Errorf("wal: replay segment %d: %w", sf.seq, statErr)
		}
		st.TruncatedBytes = info.Size() - truncAt
		if terr := os.Truncate(sf.path, truncAt); terr != nil {
			return st, fmt.Errorf("wal: truncate segment %d: %w", sf.seq, terr)
		}
	}
	if st.Skipped < skip {
		// The snapshot was published only once these records were on
		// disk, so a log without them has lost a segment.
		return st, fmt.Errorf("wal: snapshot covers %d records from segment %d on, the log holds %d", skip, base, st.Skipped)
	}
	return st, nil
}

// replaySegment reads past the first skip records of one segment —
// they must still be intact frames — and applies every intact record
// after them, counting into st. On a bad frame it returns the
// good-prefix length and the frame error.
func replaySegment(path string, skip uint64, apply func([]Op) error, st *RecoverStats) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	st.Segments++
	fr := &frameReader{r: bufio.NewReaderSize(f, 1<<20)}
	for {
		payload, err := fr.next()
		if err == io.EOF {
			return fr.good, nil
		}
		if err != nil {
			return fr.good, err
		}
		ops, err := decodeRecord(payload)
		if err != nil {
			return fr.good, err
		}
		if skip > 0 {
			skip--
			st.Skipped++
			fr.markGood(len(payload))
			continue
		}
		if err := apply(ops); err != nil {
			return fr.good, fmt.Errorf("apply: %w", err)
		}
		fr.markGood(len(payload))
		st.Records++
		st.Ops += len(ops)
	}
}
