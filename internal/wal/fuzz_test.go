package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/vfs"
)

// sealedRecords is how many real records precede the fuzzed segment.
const sealedRecords = 3

// appendFrame appends payload to seg in the log's record framing.
func appendFrame(seg, payload []byte) []byte {
	seg = binary.LittleEndian.AppendUint32(seg, uint32(len(payload)))
	seg = binary.LittleEndian.AppendUint32(seg, crc32.ChecksumIEEE(payload))
	return append(seg, payload...)
}

// intactFrames is the reference decoder: the payloads of seg's leading
// whole frames whose checksums match, and the bytes they span.
func intactFrames(seg []byte) (payloads [][]byte, size int) {
	for len(seg)-size >= recordHeaderBytes {
		rest := seg[size:]
		n := binary.LittleEndian.Uint32(rest)
		if n > maxRecordBytes || uint64(n) > uint64(len(rest)-recordHeaderBytes) {
			break
		}
		p := rest[recordHeaderBytes : recordHeaderBytes+int(n)]
		if crc32.ChecksumIEEE(p) != binary.LittleEndian.Uint32(rest[4:]) {
			break
		}
		payloads = append(payloads, p)
		size += recordHeaderBytes + int(n)
	}
	return payloads, size
}

// FuzzSegment writes the input as the active segment of a fresh log
// directory, behind one sealed segment of real records. Open and
// ReadFrom must not panic. Open must cut the input back to its intact
// frames, and ReadFrom(0) must then deliver exactly LastLSN records: the
// sealed ones, then each intact frame of the input, checksum verified.
// Neither may allocate more than the input's size justifies, however
// large a length prefix claims to be.
func FuzzSegment(f *testing.F) {
	var sealed [][]byte
	var sealedSeg []byte
	for i := uint64(1); i <= sealedRecords; i++ {
		sealed = append(sealed, readerPayload(i))
		sealedSeg = appendFrame(sealedSeg, readerPayload(i))
	}
	var seg []byte
	for i := uint64(sealedRecords + 1); i <= sealedRecords+4; i++ {
		seg = appendFrame(seg, readerPayload(i))
	}
	f.Add(seg)
	f.Add(seg[:len(seg)-3])
	huge := bytes.Clone(seg)
	binary.LittleEndian.PutUint32(huge, 200<<20)
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, lsnName(segPrefix, 1, segSuffix)), sealedSeg, 0o644); err != nil {
			t.Fatal(err)
		}
		active := filepath.Join(dir, lsnName(segPrefix, sealedRecords+1, segSuffix))
		if err := os.WriteFile(active, data, 0o644); err != nil {
			t.Fatal(err)
		}
		intact, size := intactFrames(data)
		want := append(append([][]byte(nil), sealed...), intact...)

		// Every fsync fails fast instead of reaching the disk: the target
		// checks decoding, and one real fsync per input (Close seals the
		// log) would hold it to a few executions a second.
		noSync := vfs.NewInjector(nil).Add(vfs.Fault{Op: vfs.OpSync})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		l, err := Open(dir, Options{Policy: SyncNever, FS: noSync})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer l.Close()
		var got [][]byte
		n, err := l.ReadFrom(0, 0, func(lsn uint64, payload []byte) error {
			got = append(got, bytes.Clone(payload))
			return nil
		})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("ReadFrom(0): %v", err)
		}

		if last := l.LastLSN(); last != uint64(len(want)) || n != len(want) {
			t.Fatalf("LastLSN %d, delivered %d; the input holds %d intact frames after %d sealed records",
				last, n, len(intact), sealedRecords)
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("record %d: delivered %q, want %q", i+1, got[i], want[i])
			}
		}
		fi, err := os.Stat(active)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != int64(size) {
			t.Fatalf("active segment repaired to %d bytes, want %d", fi.Size(), size)
		}
		if alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(4*len(data)+256<<10); alloc > limit {
			t.Fatalf("Open + ReadFrom allocated %d bytes for a %d-byte segment (limit %d)", alloc, len(data), limit)
		}
	})
}
