package wal

import (
	"bufio"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"repro/internal/vfs"
)

// The log's read side: one frame decoder (segReader.next) and one walk
// over the segments (ReadFrom). Recovery, torn-tail repair and the
// /repl/wal stream all read through them, so every reader applies the
// same checks.

// ErrTruncated is returned by ReadFrom when the requested position
// precedes the oldest retained record: a checkpoint has deleted the
// segments that held it. The caller must restart from a snapshot.
var ErrTruncated = errors.New("wal: requested records have been truncated by a checkpoint")

// frame is the outcome of decoding one record frame.
type frame int

const (
	frameIntact frame = iota // a whole record whose checksum matches
	frameEnd                 // no bytes left: the segment ends on a frame boundary
	frameBad                 // a torn or corrupt frame starts at segReader.off
)

// segReader decodes the record frames of one segment file in order.
type segReader struct {
	f    vfs.File
	br   *bufio.Reader
	off  int64 // byte offset of the next frame
	size int64 // file size at open: no frame may extend past it
	buf  []byte
}

// openSegment opens a segment file for decoding. The read buffer and the
// payload scratch are both bounded by the file's size, so a corrupted
// length prefix cannot make a reader allocate more than the file holds.
func openSegment(fs vfs.FS, path string) (*segReader, error) {
	f, err := fs.Open(path)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	size := fi.Size()
	return &segReader{f: f, br: bufio.NewReaderSize(f, int(min(size, 1<<20))), size: size}, nil
}

func (r *segReader) Close() error { return r.f.Close() }

// next decodes the frame at r.off. An intact frame's payload is valid
// until the next call; after frameBad the reader is spent. A read error
// is returned as an error, not as frameBad: a failing disk is not a torn
// tail, and must not be truncated as one. Only a file that ends short of
// its size at open — a concurrent repair cut it — reads as torn.
func (r *segReader) next() ([]byte, frame, error) {
	left := r.size - r.off
	if left == 0 {
		return nil, frameEnd, nil
	}
	if left < recordHeaderBytes {
		return nil, frameBad, nil
	}
	var hdr [recordHeaderBytes]byte
	if _, err := io.ReadFull(r.br, hdr[:]); err != nil {
		return shortRead(err)
	}
	n := getU32(hdr[0:4])
	if n > maxRecordBytes || int64(n) > left-recordHeaderBytes {
		return nil, frameBad, nil
	}
	if uint32(cap(r.buf)) < n {
		r.buf = make([]byte, n)
	}
	r.buf = r.buf[:n]
	if _, err := io.ReadFull(r.br, r.buf); err != nil {
		return shortRead(err)
	}
	if crc32.ChecksumIEEE(r.buf) != getU32(hdr[4:8]) {
		return nil, frameBad, nil
	}
	r.off += recordHeaderBytes + int64(n)
	return r.buf, frameIntact, nil
}

// shortRead classifies a failed read inside a frame.
func shortRead(err error) ([]byte, frame, error) {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return nil, frameBad, nil
	}
	return nil, frameBad, err
}

// repairTail decodes the active segment at path up to its first bad
// frame and truncates the file there: a torn final append is the
// expected remnant of a crash. It returns the intact record count, the
// repaired size, and whether anything was cut.
func repairTail(fs vfs.FS, path string) (count int, size int64, torn bool, err error) {
	r, err := openSegment(fs, path)
	if err != nil {
		return 0, 0, false, fmt.Errorf("wal: %w", err)
	}
	defer r.Close()
	for {
		_, fr, err := r.next()
		if err != nil {
			return 0, 0, false, fmt.Errorf("wal: %s: %w", filepath.Base(path), err)
		}
		switch fr {
		case frameEnd:
			return count, r.off, false, nil
		case frameBad:
			if err := fs.Truncate(path, r.off); err != nil {
				return 0, 0, false, fmt.Errorf("wal: truncating torn tail of %s: %w", path, err)
			}
			return count, r.off, true, nil
		}
		count++
	}
}

// ReadFrom streams records with LSN > after, in order, to fn — at most
// max records per call (max ≤ 0: unlimited) — and returns how many were
// delivered. It is the log's one read path: recovery replays through it
// and the primary's /repl/wal handler tails with it, calling it in a loop
// with the replica's applied LSN as the cursor.
//
// It is safe to run concurrently with Append: it snapshots the segment
// layout and the next LSN under the log's lock (flushing buffered bytes
// so they are visible in the files), then reads without holding it,
// never going past the captured boundary. Every frame it reads is
// CRC-checked, including those it skips on the way to after; the payload
// slice is only valid during the callback. Each call rescans from the
// start of the segment containing after+1 — O(the containing segment),
// not O(log) — which keeps the reader stateless across checkpoint
// truncations and rotations; segment size bounds that cost.
//
// A position before the oldest retained segment, or a sealed segment
// pruned mid-read, is ErrTruncated. A bad frame in a sealed segment, or
// trailing bytes after its last record, is a hard error. In the active
// segment a bad frame just ends the batch quietly: it is the in-flight
// remnant of a concurrent append (or of a poisoned log's partial write)
// and a later call sees past it once the append completes or Rearm
// repairs the tail. A caller that must see every record up to LastLSN —
// recovery — checks the last LSN delivered.
func (l *Log) ReadFrom(after uint64, max int, fn func(lsn uint64, payload []byte) error) (int, error) {
	l.mu.Lock()
	if !l.closed && l.err == nil && l.w != nil && l.dirty {
		// Make buffered appends readable. No fsync: replication shipping a
		// record does not change its local durability class.
		if err := l.w.Flush(); err != nil {
			perr := l.poisonLocked(err)
			l.mu.Unlock()
			return 0, perr
		}
	}
	starts := append([]uint64(nil), l.starts...)
	next := l.next
	l.mu.Unlock()

	if len(starts) > 0 && after+1 < starts[0] {
		return 0, fmt.Errorf("%w (oldest retained LSN %d, requested from %d)",
			ErrTruncated, starts[0], after+1)
	}
	delivered := 0
	for i, start := range starts {
		end, sealed := next, i+1 < len(starts) // end: first LSN beyond this segment
		if sealed {
			end = starts[i+1]
		}
		if end <= after+1 { // segment entirely ≤ after (or empty)
			continue
		}
		more, err := l.walkSegment(start, end, sealed, after, max, &delivered, fn)
		if err != nil || !more {
			return delivered, err
		}
	}
	return delivered, nil
}

// walkSegment delivers the records of the segment starting at start
// whose LSNs lie in (after, end), sharing ReadFrom's batch budget. It
// returns false when the walk must stop: the budget is spent or the
// active segment ended early.
func (l *Log) walkSegment(start, end uint64, sealed bool, after uint64, max int, delivered *int, fn func(uint64, []byte) error) (bool, error) {
	path := l.segPath(start)
	name := filepath.Base(path)
	r, err := openSegment(l.fs, path)
	if err != nil {
		if sealed && errors.Is(err, os.ErrNotExist) {
			// A concurrent checkpoint pruned it: the records are covered by
			// a newer snapshot, so the cursor is behind retention.
			return false, fmt.Errorf("%w (segment %s pruned mid-read)", ErrTruncated, name)
		}
		return false, fmt.Errorf("wal: %w", err)
	}
	defer r.Close()
	for lsn := start; lsn < end; lsn++ {
		if max > 0 && *delivered >= max {
			return false, nil
		}
		payload, fr, err := r.next()
		if err != nil {
			return false, fmt.Errorf("wal: %s: record %d: %w", name, lsn, err)
		}
		if fr != frameIntact {
			if !sealed {
				return false, nil // in-flight tail; try again next call
			}
			return false, fmt.Errorf("wal: %s: record %d: torn, corrupt or missing frame at byte %d", name, lsn, r.off)
		}
		if lsn > after {
			if err := fn(lsn, payload); err != nil {
				return false, err
			}
			*delivered++
		}
	}
	if sealed && r.off != r.size {
		// A sealed segment must end exactly at its successor's start.
		return false, fmt.Errorf("wal: %s: trailing bytes after record %d", name, end-1)
	}
	return true, nil
}
