package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// collect reads the whole log into a slice of (lsn, payload) pairs.
func collect(t *testing.T, l *Log, after uint64) (lsns []uint64, payloads [][]byte) {
	t.Helper()
	if _, err := l.ReadFrom(after, 0, func(lsn uint64, payload []byte) error {
		lsns = append(lsns, lsn)
		payloads = append(payloads, bytes.Clone(payload))
		return nil
	}); err != nil {
		t.Fatalf("ReadFrom(%d): %v", after, err)
	}
	return lsns, payloads
}

func TestLogAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 20; i++ {
		p := []byte(fmt.Sprintf("record-%d-%s", i, strings.Repeat("x", i*7)))
		lsn, err := l.Append(p)
		if err != nil {
			t.Fatal(err)
		}
		if lsn != uint64(i+1) {
			t.Fatalf("Append %d returned lsn %d", i, lsn)
		}
		want = append(want, p)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	lsns, payloads := collect(t, l, 0)
	if len(lsns) != 20 || lsns[0] != 1 || lsns[19] != 20 {
		t.Fatalf("replayed lsns %v", lsns)
	}
	for i := range want {
		if !bytes.Equal(payloads[i], want[i]) {
			t.Fatalf("record %d payload mismatch", i)
		}
	}
	// Replay(after) starts strictly past after.
	lsns, _ = collect(t, l, 15)
	if len(lsns) != 5 || lsns[0] != 16 {
		t.Fatalf("Replay(15) lsns %v", lsns)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: positions survive, appending continues where it stopped.
	l2, err := Open(dir, Options{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.LastLSN(); got != 20 {
		t.Fatalf("LastLSN after reopen = %d", got)
	}
	if lsn, err := l2.Append([]byte("resumed")); err != nil || lsn != 21 {
		t.Fatalf("Append after reopen = %d, %v", lsn, err)
	}
}

func TestLogRotationAndTruncateBelow(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments: every record fits, two don't.
	l, err := Open(dir, Options{SegmentBytes: 64, Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("p"), 40)
	const n = 10
	for i := 0; i < n; i++ {
		if _, err := l.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Segments < 5 {
		t.Fatalf("only %d segments after %d oversized records", st.Segments, n)
	}
	if st.Rotations == 0 {
		t.Fatal("no rotations recorded")
	}
	lsns, _ := collect(t, l, 0)
	if len(lsns) != n {
		t.Fatalf("replayed %d records across segments, want %d", len(lsns), n)
	}

	// Truncation drops sealed segments entirely covered by a checkpoint
	// at LSN 5 but never the active one; the survivors still replay.
	removed, err := l.TruncateBelow(5)
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatal("TruncateBelow(5) removed nothing")
	}
	lsns, _ = collect(t, l, 5)
	if len(lsns) != n-5 || lsns[0] != 6 {
		t.Fatalf("post-truncation Replay(5) lsns %v", lsns)
	}
	if _, err := l.TruncateBelow(uint64(n)); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Segments < 1 {
		t.Fatal("active segment was truncated away")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// The survivors recover.
	l2, err := Open(dir, Options{SegmentBytes: 64, Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.LastLSN(); got != n {
		t.Fatalf("LastLSN after truncation+reopen = %d, want %d", got, n)
	}
}

func TestLogTornTailIsTruncated(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("intact-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, fmt.Sprintf("%s%020d%s", segPrefix, 1, segSuffix))
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Chop mid-way into the final record: a crash between write and sync.
	if err := os.WriteFile(seg, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if !l2.Stats().TornTail {
		t.Error("torn tail not reported")
	}
	if got := l2.LastLSN(); got != 4 {
		t.Fatalf("LastLSN after torn tail = %d, want 4", got)
	}
	// The LSN of the lost record is reused by the next append.
	lsn, err := l2.Append([]byte("replacement"))
	if err != nil || lsn != 5 {
		t.Fatalf("Append after torn tail = %d, %v", lsn, err)
	}
	if err := l2.Sync(); err != nil {
		t.Fatal(err)
	}
	lsns, payloads := collect(t, l2, 0)
	if len(lsns) != 5 || string(payloads[4]) != "replacement" {
		t.Fatalf("replay after torn-tail repair: %d records, last %q", len(lsns), payloads[len(payloads)-1])
	}
}

func TestLogCorruptSealedSegmentFailsReplay(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 32, Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := l.Append(bytes.Repeat([]byte("q"), 24)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte in the FIRST (sealed) segment: replay must fail
	// loudly — mid-log corruption is data loss, not a torn tail.
	seg := filepath.Join(dir, fmt.Sprintf("%s%020d%s", segPrefix, 1, segSuffix))
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	raw[recordHeaderBytes+2] ^= 0xff
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{SegmentBytes: 32, Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if _, err := l2.ReadFrom(0, 0, func(uint64, []byte) error { return nil }); err == nil {
		t.Fatal("replay accepted a corrupt sealed segment")
	}
}

func TestLogSyncPolicies(t *testing.T) {
	always, err := Open(t.TempDir(), Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer always.Close()
	for i := 0; i < 3; i++ {
		if _, err := always.Append([]byte("fsync-me")); err != nil {
			t.Fatal(err)
		}
	}
	if got := always.Stats().Fsyncs; got < 3 {
		t.Errorf("SyncAlways issued %d fsyncs for 3 appends", got)
	}

	never, err := Open(t.TempDir(), Options{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := never.Append([]byte("buffered")); err != nil {
		t.Fatal(err)
	}
	if got := never.Stats().Fsyncs; got != 0 {
		t.Errorf("SyncNever issued %d fsyncs on append", got)
	}
	// Close seals: flush + fsync regardless of policy.
	if err := never.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestParsePolicy(t *testing.T) {
	for s, want := range map[string]Policy{"always": SyncAlways, "interval": SyncInterval, "never": SyncNever} {
		got, err := ParsePolicy(s)
		if err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v", s, got, err)
		}
		if got.String() != s {
			t.Errorf("%v.String() = %q", got, got.String())
		}
	}
	if _, err := ParsePolicy("sometimes"); err == nil {
		t.Error("ParsePolicy accepted garbage")
	}
}

// recordEnds parses a raw segment file into the byte offsets at which
// each record ends — the framing is <u32 len><u32 crc><payload>.
func recordEnds(t *testing.T, raw []byte) []int {
	t.Helper()
	var ends []int
	off := 0
	for off < len(raw) {
		if off+recordHeaderBytes > len(raw) {
			t.Fatalf("segment ends mid-header at %d", off)
		}
		n := int(binary.LittleEndian.Uint32(raw[off : off+4]))
		off += recordHeaderBytes + n
		if off > len(raw) {
			t.Fatalf("segment ends mid-record at %d", off)
		}
		ends = append(ends, off)
	}
	return ends
}
