package spatialdb

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bbox"
	"repro/internal/region"
)

// compatStore builds the store the checked-in testdata/stats-v2.bqs and
// testdata/stats-v3.json were saved from, by SaveBinary and Save of a
// build that still serialized planner statistics: three layers,
// non-integer coordinates, an upsert and one removed object.
func compatStore(t testing.TB) *Store {
	t.Helper()
	s := NewStore(bbox.Rect(0, 0, 100, 100), RTree)
	s.MustInsert("towns", "a", region.FromBox(bbox.Rect(1.25, 2.5, 3.75, 4.1)))
	s.MustInsert("towns", "b", region.FromBoxes(2, bbox.Rect(10.3, 10.7, 12.9, 12.2), bbox.Rect(14.01, 10.7, 16.6, 12.2)))
	s.MustInsert("towns", "c", region.FromBox(bbox.Rect(40.1, 40.2, 55.55, 61.3)))
	if _, _, err := s.Upsert("towns", "a", region.FromBox(bbox.Rect(2.2, 2.3, 4.4, 6.6))); err != nil {
		t.Fatal(err)
	}
	if _, err := s.BulkInsert("roads", []BulkItem{
		{Name: "r1", Reg: region.FromBox(bbox.Rect(0.5, 50.05, 80.8, 52.15))},
		{Name: "r2", Reg: region.FromBox(bbox.Rect(0.5, 60.6, 80.8, 62.62))},
		{Name: "r3", Reg: region.FromBox(bbox.Rect(33.3, 0.1, 35.35, 99.9))},
	}, BulkAtomic); err != nil {
		t.Fatal(err)
	}
	s.MustInsert("zones", "z1", region.FromBox(bbox.Rect(5.5, 5.5, 45.45, 45.45)))
	if ok, err := s.Remove("towns", "b"); err != nil || !ok {
		t.Fatalf("remove: ok=%v err=%v", ok, err)
	}
	return s
}

// Snapshots written while statistics were serialized (binary v2, JSON
// v3) still load: objects, ids and the id counter come back, and every
// layer's statistics are the ones a rebuild from the objects computes.
// Saving again writes the statistics-free formats (binary v1, JSON v2),
// which load back to the same store.
func TestLoadStatsCarryingSnapshots(t *testing.T) {
	want := compatStore(t)
	for _, tc := range []struct {
		file, header string
		load         func(io.Reader, IndexKind) (*Store, error)
	}{
		{"stats-v2.bqs", "BQSN\x02\x00", LoadBinary},
		{"stats-v3.json", `"version": 3`, Load},
	} {
		raw, err := os.ReadFile(filepath.Join("testdata", tc.file))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(raw, []byte(tc.header)) {
			t.Fatalf("%s: not in the statistics-carrying format", tc.file)
		}
		got, err := tc.load(bytes.NewReader(raw), Grid)
		if err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}
		equalStores(t, want, got, tc.file)
		for _, name := range got.LayerNames() {
			if !rebuildStatsFrom(t, got, name) {
				t.Errorf("%s: layer %q statistics differ from a rebuild", tc.file, name)
			}
		}
	}

	var bin, doc bytes.Buffer
	if err := want.SaveBinary(&bin); err != nil {
		t.Fatal(err)
	}
	if err := want.Save(&doc); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(bin.Bytes(), []byte("BQSN\x01\x00")) {
		t.Errorf("SaveBinary header %q, want binary version 1", bin.Bytes()[:6])
	}
	if !bytes.Contains(doc.Bytes(), []byte(`"version": 2`)) || bytes.Contains(doc.Bytes(), []byte(`"stats"`)) {
		t.Error("Save did not write a statistics-free version 2 document")
	}
	fromBin, err := LoadBinary(&bin, RTree)
	if err != nil {
		t.Fatal(err)
	}
	equalStores(t, want, fromBin, "binary v1")
	fromDoc, err := Load(&doc, RTree)
	if err != nil {
		t.Fatal(err)
	}
	equalStores(t, want, fromDoc, "json v2")
}

// FuzzLoadBinary feeds arbitrary bytes to the binary snapshot loader. It
// must reject or accept every input without panicking, and a store it
// accepts must survive SaveBinary → LoadBinary unchanged.
func FuzzLoadBinary(f *testing.F) {
	for _, file := range []string{"stats-v2.bqs", "stats-v3.json"} {
		raw, err := os.ReadFile(filepath.Join("testdata", file))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	var v1 bytes.Buffer
	if err := compatStore(f).SaveBinary(&v1); err != nil {
		f.Fatal(err)
	}
	f.Add(v1.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		src, err := LoadBinary(bytes.NewReader(data), Scan)
		if err != nil && len(data) >= 4 {
			// Re-seal the trailing checksum, so mutated input reaches the
			// decoder behind it instead of failing the CRC every time.
			body := data[: len(data)-4 : len(data)-4]
			sealed := binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
			src, err = LoadBinary(bytes.NewReader(sealed), Scan)
		}
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := src.SaveBinary(&buf); err != nil {
			t.Fatal(err)
		}
		dst, err := LoadBinary(&buf, Scan)
		if err != nil {
			t.Fatalf("reloading a saved snapshot: %v", err)
		}
		equalStores(t, src, dst, "round trip")
	})
}
