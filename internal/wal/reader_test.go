package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/spatialdb"
	"repro/internal/vfs"
)

// readerPayload is the deterministic content of record i (1-based LSN).
func readerPayload(i uint64) []byte {
	return []byte(fmt.Sprintf("record-%04d-%s", i, string(make([]byte, i%23))))
}

func appendReaderScript(t *testing.T, l *Log, n uint64) {
	t.Helper()
	for i := uint64(1); i <= n; i++ {
		lsn, err := l.Append(readerPayload(i))
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if lsn != i {
			t.Fatalf("append %d assigned LSN %d", i, lsn)
		}
	}
}

// collectFrom drains ReadFrom(after) completely and returns the LSNs and
// payload copies it delivered, verifying ordering as it goes.
func collectFrom(t *testing.T, l *Log, after uint64) ([]uint64, [][]byte) {
	t.Helper()
	var lsns []uint64
	var payloads [][]byte
	_, err := l.ReadFrom(after, 0, func(lsn uint64, payload []byte) error {
		lsns = append(lsns, lsn)
		payloads = append(payloads, append([]byte(nil), payload...))
		return nil
	})
	if err != nil {
		t.Fatalf("ReadFrom(%d): %v", after, err)
	}
	return lsns, payloads
}

// TestReadFromEveryBoundary is the replication resumability property: a
// reader resumed from every record boundary yields exactly the suffix of
// the record sequence, across segment rotations. Tiny segments force
// many rotations so every boundary class — segment start, mid-segment,
// active tail — is exercised.
func TestReadFromEveryBoundary(t *testing.T) {
	const n = 60
	l, err := Open(t.TempDir(), Options{SegmentBytes: 96, Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendReaderScript(t, l, n)
	if segs := l.Stats().Segments; segs < 5 {
		t.Fatalf("only %d segments; the property needs rotations", segs)
	}
	for after := uint64(0); after <= n; after++ {
		lsns, payloads := collectFrom(t, l, after)
		if want := int(n - after); len(lsns) != want {
			t.Fatalf("ReadFrom(%d): %d records, want %d", after, len(lsns), want)
		}
		for j, lsn := range lsns {
			want := after + uint64(j) + 1
			if lsn != want {
				t.Fatalf("ReadFrom(%d): record %d has LSN %d, want %d", after, j, lsn, want)
			}
			if string(payloads[j]) != string(readerPayload(want)) {
				t.Fatalf("ReadFrom(%d): LSN %d payload mismatch", after, lsn)
			}
		}
	}
}

// TestReadFromAfterTornFinalRecord crashes the log mid-append (simulated
// by chopping bytes off the newest segment) and requires every resumed
// reader to deliver the suffix minus the torn record — exactly what
// recovery preserves.
func TestReadFromAfterTornFinalRecord(t *testing.T) {
	const n = 40
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 128, Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	appendReaderScript(t, l, n)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the last record: remove 3 bytes from the newest segment.
	segs, err := listLSNs(vfs.OS, dir, segPrefix, segSuffix)
	if err != nil {
		t.Fatal(err)
	}
	last := filepath.Join(dir, fmt.Sprintf("%s%020d%s", segPrefix, segs[len(segs)-1], segSuffix))
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	l, err = Open(dir, Options{SegmentBytes: 128, Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if !l.Stats().TornTail {
		t.Fatal("open did not detect the torn tail")
	}
	if got := l.LastLSN(); got != n-1 {
		t.Fatalf("LastLSN after torn open = %d, want %d", got, n-1)
	}
	for after := uint64(0); after <= n-1; after++ {
		lsns, _ := collectFrom(t, l, after)
		if want := int(n - 1 - after); len(lsns) != want {
			t.Fatalf("ReadFrom(%d) after torn tail: %d records, want %d", after, len(lsns), want)
		}
	}
}

// TestReadFromTruncatedPosition pins the snapshot-handoff contract: a
// cursor behind the oldest retained segment gets ErrTruncated, not a
// silent gap.
func TestReadFromTruncatedPosition(t *testing.T) {
	l, err := Open(t.TempDir(), Options{SegmentBytes: 96, Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendReaderScript(t, l, 30)
	if err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	removed, err := l.TruncateBelow(20)
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatal("TruncateBelow removed nothing; test needs a pruned prefix")
	}
	oldest := l.SegmentStart()
	if _, err := l.ReadFrom(0, 0, func(uint64, []byte) error { return nil }); !errors.Is(err, ErrTruncated) {
		t.Fatalf("ReadFrom(0) after truncation = %v, want ErrTruncated", err)
	}
	// The oldest retained boundary still works.
	if _, err := l.ReadFrom(oldest-1, 0, func(uint64, []byte) error { return nil }); err != nil {
		t.Fatalf("ReadFrom(%d) at retention edge: %v", oldest-1, err)
	}
}

// TestReadFromBatchLimit pins the long-poll batching contract: max
// bounds each call and consecutive calls with advancing cursors cover
// the log exactly once.
func TestReadFromBatchLimit(t *testing.T) {
	const n = 25
	l, err := Open(t.TempDir(), Options{SegmentBytes: 128, Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendReaderScript(t, l, n)
	var got []uint64
	cursor := uint64(0)
	for {
		delivered, err := l.ReadFrom(cursor, 7, func(lsn uint64, _ []byte) error {
			got = append(got, lsn)
			cursor = lsn
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if delivered == 0 {
			break
		}
		if delivered > 7 {
			t.Fatalf("batch of %d exceeds max=7", delivered)
		}
	}
	if len(got) != n {
		t.Fatalf("batched reads delivered %d records, want %d", len(got), n)
	}
	for i, lsn := range got {
		if lsn != uint64(i+1) {
			t.Fatalf("record %d has LSN %d", i, lsn)
		}
	}
}

// TestChaosReadFromConcurrentAppend runs a tailing reader against a live
// appender — the exact shape of the primary-side replication stream —
// asserting under -race that the reader sees every record exactly once,
// in order, using AppendNotify instead of spinning.
func TestChaosReadFromConcurrentAppend(t *testing.T) {
	const n = 300
	l, err := Open(t.TempDir(), Options{SegmentBytes: 256, Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(1); i <= n; i++ {
			if _, err := l.Append(readerPayload(i)); err != nil {
				t.Errorf("append %d: %v", i, err)
				return
			}
		}
	}()

	cursor := uint64(0)
	deadline := time.After(10 * time.Second)
	for cursor < n {
		notify := l.AppendNotify()
		for {
			delivered, err := l.ReadFrom(cursor, 32, func(lsn uint64, payload []byte) error {
				if lsn != cursor+1 {
					return fmt.Errorf("saw LSN %d after %d", lsn, cursor)
				}
				if string(payload) != string(readerPayload(lsn)) {
					return fmt.Errorf("LSN %d payload mismatch", lsn)
				}
				cursor = lsn
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if delivered == 0 {
				break
			}
		}
		if cursor >= n {
			break
		}
		select {
		case <-notify:
		case <-deadline:
			t.Fatalf("reader stalled at LSN %d", cursor)
		}
	}
	wg.Wait()
}

// TestSnapshotPinDefersPrune is the satellite regression test for the
// snapshot-prune race: a snapshot being streamed to a replica must
// survive checkpoints that would otherwise prune it, and must be pruned
// once released.
func TestSnapshotPinDefersPrune(t *testing.T) {
	dir := t.TempDir()
	db := mustOpenDB(t, dir, DBOptions{
		Kind: spatialdb.Scan, Universe: testUniverse,
		KeepSnapshots: 1, CheckpointInterval: -1, CheckpointBytes: -1,
		Log: Options{Policy: SyncNever},
	})
	defer db.Close()

	if _, _, _, err := db.AcquireSnapshot(); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("AcquireSnapshot on empty dir = %v, want ErrNoSnapshot", err)
	}

	// advance runs the deterministic mutation script forward; each op
	// logs exactly one record, so checkpoints land at fresh LSNs.
	scripted := 0
	advance := func(upto int) {
		t.Helper()
		for ; scripted < upto; scripted++ {
			if err := scriptOp(scripted, db.Store()); err != nil {
				t.Fatalf("script op %d: %v", scripted, err)
			}
		}
	}

	advance(4)
	lsnA, err := db.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	snapA := filepath.Join(dir, fmt.Sprintf("%s%020d%s", snapPrefix, lsnA, snapSuffix))

	gotLSN, r, release, err := db.AcquireSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if gotLSN != lsnA {
		t.Fatalf("AcquireSnapshot LSN %d, want %d", gotLSN, lsnA)
	}

	// Two more checkpoints; with KeepSnapshots=1 both would prune snapA
	// were it not pinned.
	advance(8)
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	advance(12)
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(snapA); err != nil {
		t.Fatalf("pinned snapshot was pruned mid-stream: %v", err)
	}
	// The pinned file must still be fully readable.
	buf := make([]byte, 16)
	if _, err := r.Read(buf); err != nil {
		t.Fatalf("reading pinned snapshot: %v", err)
	}
	r.Close()
	release()

	// Released: the next checkpoint prunes it.
	advance(16)
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(snapA); !os.IsNotExist(err) {
		t.Fatalf("released snapshot still present after checkpoint (stat err %v)", err)
	}
}

// TestReadFromCorruptLengthAllocatesBounded sets the first length prefix
// of a sealed segment to 200 MiB. ReadFrom must reject the frame without
// allocating more than the file holds.
func TestReadFromCorruptLengthAllocatesBounded(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	appendReaderScript(t, l, 3)
	if err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(readerPayload(4)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	sealed := filepath.Join(dir, lsnName(segPrefix, 1, segSuffix))
	raw, err := os.ReadFile(sealed)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(raw[0:4], 200<<20)
	if err := os.WriteFile(sealed, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	l, err = Open(dir, Options{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = l.ReadFrom(0, 0, func(uint64, []byte) error { return nil })
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("ReadFrom accepted a 200 MiB length prefix in a sealed segment")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("ReadFrom allocated %d bytes on a %d-byte segment", got, len(raw))
	}
}
