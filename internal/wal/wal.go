// Package wal implements boolqd's durable write path (DESIGN.md §6): a
// segmented append-only write-ahead log of the store's mutation records,
// binary snapshots checkpointed beside it, and crash recovery that loads
// the latest snapshot and replays the log tail.
//
// The package has two layers. Log (this file) is a generic record log:
// length-prefixed CRC32-checksummed byte records in size-rotated segment
// files, with a configurable fsync policy and tolerance for a torn final
// record. DB (db.go) binds a Log to a spatialdb.Store: it hooks the
// store's mutation sink, recovers on open, checkpoints snapshots in the
// background, and truncates sealed segments a snapshot has made
// redundant.
//
// On-disk layout of a data directory:
//
//	wal-00000000000000000001.log    segment whose first record is LSN 1
//	wal-00000000000000004096.log    the active (newest) segment
//	snap-00000000000000004095.bqs   binary snapshot covering LSNs ≤ 4095
//
// Record framing within a segment:
//
//	length  uint32 (little-endian)  payload bytes
//	crc32   uint32 (IEEE)           checksum of the payload
//	payload length bytes
//
// LSNs are implicit: records are numbered consecutively from the
// segment's first LSN (carried in its filename), so the log needs no
// index — recovery derives every position by scanning.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/vfs"
)

// Policy selects when appended records are fsynced to stable storage.
type Policy int

// Fsync policies.
const (
	// SyncAlways fsyncs inside every Append: a mutation is acknowledged
	// only once its record is on stable storage. The strongest guarantee
	// and the slowest write path.
	SyncAlways Policy = iota
	// SyncInterval fsyncs from a background ticker (Options.Interval):
	// a crash loses at most the last interval's acknowledged writes.
	SyncInterval
	// SyncNever leaves flushing to the OS page cache: a crash loses
	// whatever the kernel had not written back. Fastest; for caches and
	// rebuildable data only.
	SyncNever
)

// String returns the flag spelling of the policy.
func (p Policy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ParsePolicy parses the flag spelling of a fsync policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always|interval|never)", s)
}

// Options configures a Log.
type Options struct {
	// SegmentBytes rotates the active segment once it exceeds this size
	// (≤ 0: DefaultSegmentBytes). Sealed segments are the unit of
	// checkpoint truncation, so smaller segments bound disk usage more
	// tightly at the cost of more files.
	SegmentBytes int64
	// Policy is the fsync policy (default SyncAlways — zero value is the
	// safe one).
	Policy Policy
	// Interval is the SyncInterval flush period (≤ 0:
	// DefaultSyncInterval).
	Interval time.Duration
	// FS is the filesystem the log runs on (nil: vfs.OS). Tests inject a
	// vfs.Injector here to exercise every durability code path under
	// programmable disk faults.
	FS vfs.FS
}

// Defaults for Options.
const (
	DefaultSegmentBytes = 64 << 20
	DefaultSyncInterval = 100 * time.Millisecond
)

// maxRecordBytes bounds a single record (a corrupted length prefix must
// not make replay attempt a multi-gigabyte allocation).
const maxRecordBytes = 256 << 20

// recordHeaderBytes is the length prefix plus the checksum.
const recordHeaderBytes = 8

const (
	segPrefix  = "wal-"
	segSuffix  = ".log"
	snapPrefix = "snap-"
	snapSuffix = ".bqs"
	tmpSuffix  = ".tmp"
)

// Stats is a point-in-time snapshot of a Log's counters.
type Stats struct {
	Appends       int64  `json:"appends"`        // records appended this process
	AppendedBytes int64  `json:"appended_bytes"` // record bytes appended (incl. framing)
	Fsyncs        int64  `json:"fsyncs"`         // fsync calls issued
	Rotations     int64  `json:"rotations"`      // segments sealed by rotation
	Rearms        int64  `json:"rearms"`         // failure episodes repaired by Rearm
	Segments      int    `json:"segments"`       // segment files on disk
	LastLSN       uint64 `json:"last_lsn"`       // newest assigned LSN (0: none)
	TornTail      bool   `json:"torn_tail"`      // open truncated a torn final record
	Failed        bool   `json:"failed"`         // a write failure disabled the log (Rearm pending)
}

// Log is a segmented append-only record log. Append/Sync/Rotate/
// TruncateBelow/ReadFrom are safe for concurrent use.
type Log struct {
	dir  string
	fs   vfs.FS
	opts Options

	mu       sync.Mutex
	f        vfs.File
	w        *bufio.Writer
	starts   []uint64 // first LSN of each segment on disk, ascending; last is active
	curStart uint64
	size     int64  // bytes in the active segment
	next     uint64 // LSN the next Append assigns
	dirty    bool   // unsynced bytes pending
	err      error  // a failed write disables the log until Rearm repairs it
	closed   bool
	watch    chan struct{} // closed on the next successful Append (lazily made)

	appends   atomic.Int64
	bytes     atomic.Int64
	fsyncs    atomic.Int64
	rotations atomic.Int64
	rearms    atomic.Int64
	tornTail  bool

	stopc chan struct{} // interval syncer lifecycle
	donec chan struct{}
}

// Open opens (creating if needed) the log in dir. It scans the newest
// segment to find the next LSN, truncating a torn final record — the
// expected remnant of a crash mid-append — so the log is immediately
// appendable. Corruption anywhere else is reported by ReadFrom, not here.
func Open(dir string, opts Options) (*Log, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.Interval <= 0 {
		opts.Interval = DefaultSyncInterval
	}
	if opts.FS == nil {
		opts.FS = vfs.OS
	}
	if err := opts.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{dir: dir, fs: opts.FS, opts: opts}
	starts, err := listLSNs(l.fs, dir, segPrefix, segSuffix)
	if err != nil {
		return nil, err
	}
	if len(starts) > 0 && starts[0] == 0 {
		return nil, fmt.Errorf("wal: segment %q starts at LSN 0", lsnName(segPrefix, 0, segSuffix))
	}
	if len(starts) == 0 {
		l.starts = []uint64{1}
		l.curStart, l.next = 1, 1
		if err := l.createSegmentLocked(); err != nil {
			return nil, err
		}
	} else {
		l.starts = starts
		l.curStart = starts[len(starts)-1]
		path := l.segPath(l.curStart)
		count, goodBytes, torn, err := repairTail(l.fs, path)
		if err != nil {
			return nil, err
		}
		l.tornTail = torn
		l.next = l.curStart + uint64(count)
		f, err := l.fs.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		l.f = f
		l.w = bufio.NewWriter(f)
		l.size = goodBytes
	}
	if opts.Policy == SyncInterval {
		l.stopc = make(chan struct{})
		l.donec = make(chan struct{})
		go l.syncLoop()
	}
	return l, nil
}

// Dir returns the log's directory.
func (l *Log) Dir() string { return l.dir }

// Policy returns the configured fsync policy.
func (l *Log) Policy() Policy { return l.opts.Policy }

// LastLSN returns the newest assigned LSN (0 if the log is empty).
func (l *Log) LastLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next - 1
}

// NextLSN returns the LSN the next successful Append will assign. Callers
// that retry a failed Append use it to detect a record that actually
// reached the disk even though the Append reported an error.
func (l *Log) NextLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

// Failed returns the write failure currently disabling the log, or nil
// when the log is healthy.
func (l *Log) Failed() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// SegmentStart returns the first LSN of the active segment.
func (l *Log) SegmentStart() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.curStart
}

// Stats returns the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	segments := len(l.starts)
	last := l.next - 1
	torn := l.tornTail
	failed := l.err != nil
	l.mu.Unlock()
	return Stats{
		Appends:       l.appends.Load(),
		AppendedBytes: l.bytes.Load(),
		Fsyncs:        l.fsyncs.Load(),
		Rotations:     l.rotations.Load(),
		Rearms:        l.rearms.Load(),
		Segments:      segments,
		LastLSN:       last,
		TornTail:      torn,
		Failed:        failed,
	}
}

// Append writes one record and returns its LSN. Under SyncAlways the
// record is on stable storage when Append returns; under the other
// policies it is buffered. A write failure disables the log: every later
// Append fails too, because bytes may have reached the file partially
// and anything appended after them would be unreachable at replay. Rearm
// repairs the on-disk state and re-enables appending.
func (l *Log) Append(payload []byte) (uint64, error) {
	if len(payload) > maxRecordBytes {
		return 0, fmt.Errorf("wal: record of %d bytes exceeds the %d-byte limit", len(payload), maxRecordBytes)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, errors.New("wal: log is closed")
	}
	if l.err != nil {
		return 0, fmt.Errorf("wal: log is poisoned by an earlier failure: %w", l.err)
	}
	rec := int64(recordHeaderBytes + len(payload))
	if l.size > 0 && l.size+rec > l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return 0, err
		}
	}
	var hdr [recordHeaderBytes]byte
	putU32(hdr[0:4], uint32(len(payload)))
	putU32(hdr[4:8], crc32.ChecksumIEEE(payload))
	if _, err := l.w.Write(hdr[:]); err != nil {
		return 0, l.poisonLocked(err)
	}
	if _, err := l.w.Write(payload); err != nil {
		return 0, l.poisonLocked(err)
	}
	lsn := l.next
	l.next++
	l.size += rec
	l.dirty = true
	l.appends.Add(1)
	l.bytes.Add(rec)
	if l.opts.Policy == SyncAlways {
		if err := l.syncLocked(); err != nil {
			return 0, err
		}
	}
	l.notifyLocked()
	return lsn, nil
}

// AppendNotify returns a channel closed by the next successful Append
// (or by Close). Long-poll readers — the replication WAL stream — wait
// on it instead of spinning: grab the channel, read whatever is already
// on disk, then block until the channel closes before reading again.
func (l *Log) AppendNotify() <-chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		ch := make(chan struct{})
		close(ch)
		return ch
	}
	if l.watch == nil {
		l.watch = make(chan struct{})
	}
	return l.watch
}

// notifyLocked wakes AppendNotify waiters. Callers hold l.mu.
func (l *Log) notifyLocked() {
	if l.watch != nil {
		close(l.watch)
		l.watch = nil
	}
}

// Sync flushes buffered records and fsyncs the active segment.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("wal: log is closed")
	}
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if l.err != nil {
		return fmt.Errorf("wal: log is poisoned by an earlier failure: %w", l.err)
	}
	if !l.dirty {
		return nil
	}
	if err := l.w.Flush(); err != nil {
		return l.poisonLocked(err)
	}
	if err := l.f.Sync(); err != nil {
		return l.poisonLocked(err)
	}
	l.fsyncs.Add(1)
	l.dirty = false
	return nil
}

// poisonLocked records a write-path failure and returns it wrapped.
func (l *Log) poisonLocked(err error) error {
	l.err = err
	return fmt.Errorf("wal: %w", err)
}

// Rotate seals the active segment (flush + fsync + close) and starts a
// new one. Sealed segments are immutable and become candidates for
// TruncateBelow.
func (l *Log) Rotate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("wal: log is closed")
	}
	if l.size == 0 {
		return nil // already fresh
	}
	return l.rotateLocked()
}

func (l *Log) rotateLocked() error {
	if l.err != nil {
		return fmt.Errorf("wal: log is poisoned by an earlier failure: %w", l.err)
	}
	// Seal: everything in a sealed segment is durable regardless of
	// policy, so truncation decisions never race the page cache.
	if l.dirty {
		if err := l.w.Flush(); err != nil {
			return l.poisonLocked(err)
		}
		if err := l.f.Sync(); err != nil {
			return l.poisonLocked(err)
		}
		l.fsyncs.Add(1)
		l.dirty = false
	}
	if err := l.f.Close(); err != nil {
		return l.poisonLocked(err)
	}
	l.curStart = l.next
	l.starts = append(l.starts, l.next)
	l.rotations.Add(1)
	return l.createSegmentLocked()
}

// createSegmentLocked creates the active segment file for l.curStart.
func (l *Log) createSegmentLocked() error {
	path := l.segPath(l.curStart)
	f, err := l.fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return l.poisonLocked(err)
	}
	l.f = f
	l.w = bufio.NewWriter(f)
	l.size = 0
	l.dirty = false
	if err := syncDir(l.fs, l.dir); err != nil {
		return l.poisonLocked(err)
	}
	return nil
}

// Rearm repairs a log disabled by a write failure and re-enables
// appending. The wounded writer's buffer is discarded — the on-disk scan
// below is the only truth about what survived — and the active segment is
// re-scanned exactly as Open does after a crash: whole records count,
// a torn tail is truncated, and next is recomputed from what the disk
// actually holds. If the active segment file is missing (a rotation
// failed after sealing the old segment but before creating the new one),
// it is created. A probe fsync must succeed before the log is trusted
// again; on any error the log stays disabled and Rearm can be retried.
// Rearm on a healthy log is a no-op.
//
// After a Rearm, LSNs continue from the disk state: an append whose
// write landed but whose fsync failed keeps its LSN (now durable via the
// probe fsync), while one that never reached the disk is forgotten and
// its LSN is reassigned to the next append. Callers holding
// acknowledged-but-buffered records (SyncInterval/SyncNever policies)
// must reconcile by snapshotting, as wal.DB does.
func (l *Log) Rearm() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("wal: log is closed")
	}
	if l.err == nil {
		return nil
	}
	if l.f != nil {
		_ = l.f.Close() // best effort; the file may already be unusable
		l.f = nil
		l.w = nil
	}
	path := l.segPath(l.curStart)
	var count int
	var goodBytes int64
	if _, statErr := l.fs.Stat(path); statErr == nil {
		c, gb, _, err := repairTail(l.fs, path)
		if err != nil {
			return fmt.Errorf("wal: rearm: %w", err)
		}
		count, goodBytes = c, gb
		f, err := l.fs.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("wal: rearm: %w", err)
		}
		l.f = f
	} else {
		// The rotation that failed sealed the old segment but never
		// materialized the new one.
		f, err := l.fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if err != nil {
			return fmt.Errorf("wal: rearm: %w", err)
		}
		l.f = f
		if err := syncDir(l.fs, l.dir); err != nil {
			_ = l.f.Close()
			l.f = nil
			return fmt.Errorf("wal: rearm: %w", err)
		}
	}
	// Probe: the device must accept an fsync before the log is trusted.
	if err := l.f.Sync(); err != nil {
		_ = l.f.Close()
		l.f = nil
		return fmt.Errorf("wal: rearm probe fsync: %w", err)
	}
	l.fsyncs.Add(1)
	l.w = bufio.NewWriter(l.f)
	l.size = goodBytes
	l.next = l.curStart + uint64(count)
	l.dirty = false
	l.err = nil
	l.rearms.Add(1)
	return nil
}

// SkipTo advances the log so the next Append assigns at least lsn. It is
// a recovery-time guard: if a snapshot is ahead of the log (segments
// deleted by hand), appending with reused LSNs would make the new
// records invisible to the next recovery. Requires rotation if the
// active segment holds records.
func (l *Log) SkipTo(lsn uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.next >= lsn {
		return nil
	}
	if l.size > 0 {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	// The active segment is empty: rename it to the new start.
	old := l.segPath(l.curStart)
	if err := l.f.Close(); err != nil {
		return l.poisonLocked(err)
	}
	if err := l.fs.Remove(old); err != nil {
		return l.poisonLocked(err)
	}
	l.next = lsn
	l.curStart = lsn
	l.starts[len(l.starts)-1] = lsn
	return l.createSegmentLocked()
}

// Close flushes and fsyncs pending records, seals the active segment and
// stops the interval syncer. The log must not be used afterwards.
func (l *Log) Close() error {
	if l.stopc != nil {
		close(l.stopc)
		<-l.donec
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	l.notifyLocked() // wake long-poll readers so they observe the close
	var firstErr error
	if l.err == nil && l.f != nil {
		if err := l.w.Flush(); err != nil && firstErr == nil {
			firstErr = err
		}
		if err := l.f.Sync(); err != nil && firstErr == nil {
			firstErr = err
		} else if err == nil {
			l.fsyncs.Add(1)
		}
	}
	if l.f != nil {
		if err := l.f.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// syncLoop is the SyncInterval background flusher.
func (l *Log) syncLoop() {
	defer close(l.donec)
	t := time.NewTicker(l.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			l.mu.Lock()
			if !l.closed {
				_ = l.syncLocked() // poisoning is visible to the next Append
			}
			l.mu.Unlock()
		case <-l.stopc:
			return
		}
	}
}

// TruncateBelow deletes sealed segments whose every record is ≤ lsn —
// i.e. segments a snapshot at lsn has made redundant — and returns how
// many were removed. The active segment is never removed.
func (l *Log) TruncateBelow(lsn uint64) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	removed := 0
	for len(l.starts) > 1 && l.starts[1] <= lsn+1 {
		// The next segment starts at starts[1], so this one's records end
		// at starts[1]-1 ≤ lsn: every record is covered by the snapshot.
		if err := l.fs.Remove(l.segPath(l.starts[0])); err != nil {
			return removed, fmt.Errorf("wal: %w", err)
		}
		l.starts = l.starts[1:]
		removed++
	}
	if removed > 0 {
		if err := syncDir(l.fs, l.dir); err != nil {
			return removed, err
		}
	}
	return removed, nil
}

// ---- segment and snapshot files ----

func (l *Log) segPath(start uint64) string {
	return filepath.Join(l.dir, lsnName(segPrefix, start, segSuffix))
}

// snapPath is the snapshot file in dir whose boundary is lsn.
func snapPath(dir string, lsn uint64) string {
	return filepath.Join(dir, lsnName(snapPrefix, lsn, snapSuffix))
}

// lsnName is the file name of the segment or snapshot numbered lsn.
func lsnName(prefix string, lsn uint64, suffix string) string {
	return fmt.Sprintf("%s%020d%s", prefix, lsn, suffix)
}

// listLSNs lists, ascending, the LSNs of the files in dir named prefix +
// LSN + suffix. A matching name not in lsnName's exact form is an error:
// two spellings of one number would alias one segment or snapshot. The
// form's fixed width also makes ReadDir's name order the LSN order.
func listLSNs(fs vfs.FS, dir, prefix, suffix string) ([]uint64, error) {
	entries, err := fs.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var lsns []uint64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
			continue
		}
		lsn, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix), 10, 64)
		if err != nil || name != lsnName(prefix, lsn, suffix) {
			return nil, fmt.Errorf("wal: unrecognized file %q", name)
		}
		lsns = append(lsns, lsn)
	}
	return lsns, nil
}

// ---- small helpers ----

func putU32(b []byte, v uint32) { binary.LittleEndian.PutUint32(b, v) }

func getU32(b []byte) uint32 { return binary.LittleEndian.Uint32(b) }

// syncDir fsyncs a directory so renames, creations and removals in it
// are durable. Filesystem quirks (EINVAL on directory fsync) are handled
// by the FS implementation; anything it reports is a real failure.
func syncDir(fs vfs.FS, dir string) error {
	if err := fs.SyncDir(dir); err != nil {
		return fmt.Errorf("wal: fsync %s: %w", dir, err)
	}
	return nil
}
