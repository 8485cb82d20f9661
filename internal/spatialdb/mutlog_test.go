package spatialdb

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/bbox"
	"repro/internal/region"
)

// codecCases is one mutation of every record type, with multi-box
// regions and empty names in the mix.
func codecCases() []*Mutation {
	return []*Mutation{
		{Op: OpCreateLayer, Layer: "towns"},
		{Op: OpInsert, Layer: "towns", Objects: []MutObject{
			{ID: 1, Name: "a", Boxes: []bbox.Box{rect(1, 1, 3, 3)}},
		}},
		{Op: OpUpsert, Layer: "towns", Objects: []MutObject{
			{ID: 7, Name: "", Boxes: []bbox.Box{rect(1, 1, 3, 3), rect(5, 1, 7, 3)}},
		}},
		{Op: OpRemove, Layer: "roads", RemoveID: 42},
		{Op: OpBulkInsert, Layer: "roads", Objects: []MutObject{
			{ID: 2, Name: "r1", Boxes: []bbox.Box{rect(0, 0, 1, 1)}},
			{ID: 3, Name: "r2", Boxes: []bbox.Box{rect(2, 2, 3, 3)}},
		}},
	}
}

func TestMutationCodecRoundTrip(t *testing.T) {
	for _, m := range codecCases() {
		enc := AppendMutation(nil, m)
		got, err := DecodeMutation(enc)
		if err != nil {
			t.Fatalf("%s: decode: %v", m.Op, err)
		}
		if !reflect.DeepEqual(m, got) {
			t.Errorf("%s: round trip changed the record:\n got %+v\nwant %+v", m.Op, got, m)
		}
	}
}

func TestMutationCodecRejectsDamage(t *testing.T) {
	for _, m := range codecCases() {
		enc := AppendMutation(nil, m)
		// Every strict prefix must be rejected — the framing CRC protects
		// against corruption, but truncation bugs must not pass silently.
		for cut := 0; cut < len(enc); cut++ {
			if _, err := DecodeMutation(enc[:cut]); err == nil {
				t.Errorf("%s: decode accepted %d/%d-byte prefix", m.Op, cut, len(enc))
			}
		}
		if _, err := DecodeMutation(append(bytes.Clone(enc), 0)); err == nil {
			t.Errorf("%s: decode accepted a trailing byte", m.Op)
		}
	}
	if _, err := DecodeMutation([]byte{99, 0}); err == nil {
		t.Error("decode accepted an unknown op")
	}
}

// recordingSink captures the encoded mutation stream the way the WAL
// would, so tests can replay it.
type recordingSink struct{ recs [][]byte }

func (rs *recordingSink) log(m *Mutation) error {
	rs.recs = append(rs.recs, AppendMutation(nil, m))
	return nil
}

// mutateScript drives every mutating entry point against s. All
// operations succeed, so each call emits exactly one record.
func mutateScript(t *testing.T, s *Store) {
	t.Helper()
	if _, _, err := s.CreateLayer("empty"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert("towns", "a", region.FromBox(rect(1, 1, 3, 3))); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert("towns", "", region.FromBox(rect(4, 4, 6, 6))); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Upsert("towns", "b", region.FromBoxes(2, rect(10, 10, 12, 12), rect(14, 10, 16, 12))); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Upsert("towns", "a", region.FromBox(rect(2, 2, 4, 4))); err != nil {
		t.Fatal(err) // replaces the first insert
	}
	items := []BulkItem{
		{Name: "r1", Reg: region.FromBox(rect(0, 50, 80, 52))},
		{Name: "r2", Reg: region.FromBox(rect(0, 60, 80, 62))},
	}
	if _, err := s.BulkInsert("roads", items, BulkAtomic); err != nil {
		t.Fatal(err)
	}
	if ok, err := s.Remove("towns", "b"); err != nil || !ok {
		t.Fatalf("Remove = %v, %v", ok, err)
	}
}

// equalStores fails the test unless a and b hold identical content:
// universe, layer order, and per layer the objects' ids, names and
// regions in insertion order and the planner statistics, plus the id
// counter.
func equalStores(t *testing.T, a, b *Store, label string) {
	t.Helper()
	if !a.Universe().Equal(b.Universe()) {
		t.Fatalf("%s: universe %v vs %v", label, a.Universe(), b.Universe())
	}
	an, bn := a.LayerNames(), b.LayerNames()
	if !reflect.DeepEqual(an, bn) {
		t.Fatalf("%s: layers %v vs %v", label, an, bn)
	}
	for _, name := range an {
		ao, bo := a.Layer(name).Objects(), b.Layer(name).Objects()
		if len(ao) != len(bo) {
			t.Fatalf("%s: layer %q: %d vs %d objects", label, name, len(ao), len(bo))
		}
		for i := range ao {
			if ao[i].ID != bo[i].ID || ao[i].Name != bo[i].Name {
				t.Fatalf("%s: layer %q object %d: (%d,%q) vs (%d,%q)",
					label, name, i, ao[i].ID, ao[i].Name, bo[i].ID, bo[i].Name)
			}
			if !ao[i].Reg.Equal(bo[i].Reg) {
				t.Fatalf("%s: layer %q object %q: region differs", label, name, ao[i].Name)
			}
		}
		if !a.Layer(name).DataStats().Equal(b.Layer(name).DataStats()) {
			t.Fatalf("%s: layer %q: planner statistics differ", label, name)
		}
	}
	if a.NextID() != b.NextID() {
		t.Fatalf("%s: NextID %d vs %d", label, a.NextID(), b.NextID())
	}
}

func TestMutationReplayReproducesStore(t *testing.T) {
	for _, kind := range allKinds {
		src := NewStore(rect(0, 0, 100, 100), kind)
		sink := &recordingSink{}
		src.SetMutationSink(sink.log)
		mutateScript(t, src)

		dst := NewStore(rect(0, 0, 100, 100), kind)
		for i, rec := range sink.recs {
			m, err := DecodeMutation(rec)
			if err != nil {
				t.Fatalf("%v: record %d: %v", kind, i, err)
			}
			if err := dst.ApplyMutation(m); err != nil {
				t.Fatalf("%v: record %d (%s): %v", kind, i, m.Op, err)
			}
		}
		equalStores(t, src, dst, kind.String())
	}
}

func TestMutationSinkFailureSurfacesAsDurabilityError(t *testing.T) {
	s := NewStore(rect(0, 0, 100, 100), Scan)
	boom := errors.New("disk gone")
	s.SetMutationSink(func(*Mutation) error { return boom })
	_, err := s.Insert("towns", "a", region.FromBox(rect(1, 1, 3, 3)))
	if !errors.Is(err, ErrDurability) {
		t.Fatalf("Insert error = %v, want ErrDurability", err)
	}
	// The mutation was applied in memory even though logging failed: the
	// state stays ahead of the log, never behind it.
	if got := s.Layer("towns").Len(); got != 1 {
		t.Fatalf("layer holds %d objects after failed-log insert, want 1", got)
	}
	s.SetMutationSink(nil)
	if _, err := s.Insert("towns", "b", region.FromBox(rect(5, 5, 7, 7))); err != nil {
		t.Fatalf("detached sink still fails inserts: %v", err)
	}
}

func TestBinarySnapshotRoundTrip(t *testing.T) {
	src := NewStore(rect(0, 0, 100, 100), Scan)
	src.SetMutationSink(func(*Mutation) error { return nil })
	mutateScript(t, src)

	var buf bytes.Buffer
	if err := src.SaveBinary(&buf); err != nil {
		t.Fatal(err)
	}
	for _, kind := range allKinds {
		dst, err := LoadBinary(bytes.NewReader(buf.Bytes()), kind)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		equalStores(t, src, dst, kind.String())
	}
}

func TestBinarySnapshotRejectsDamage(t *testing.T) {
	src := NewStore(rect(0, 0, 100, 100), Scan)
	mutateScript(t, src)
	var buf bytes.Buffer
	if err := src.SaveBinary(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Any single flipped byte must fail the checksum.
	for _, off := range []int{0, 5, len(raw) / 2, len(raw) - 5, len(raw) - 1} {
		bad := bytes.Clone(raw)
		bad[off] ^= 0x40
		if _, err := LoadBinary(bytes.NewReader(bad), Scan); err == nil {
			t.Errorf("corruption at byte %d accepted", off)
		}
	}
	// Truncations too — including cutting into the trailing checksum.
	for _, cut := range []int{0, 3, len(raw) / 2, len(raw) - 2} {
		if _, err := LoadBinary(bytes.NewReader(raw[:cut]), Scan); err == nil {
			t.Errorf("truncation to %d bytes accepted", cut)
		}
	}
}

func TestJSONSnapshotV2PreservesIDs(t *testing.T) {
	src := NewStore(rect(0, 0, 100, 100), Scan)
	mutateScript(t, src)
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	dst, err := Load(bytes.NewReader(buf.Bytes()), RTree)
	if err != nil {
		t.Fatal(err)
	}
	equalStores(t, src, dst, "json v2")

	// The preserved id counter means a post-reload insert cannot collide
	// with the id of an object deleted before the save.
	o, err := dst.Insert("towns", "fresh", region.FromBox(rect(20, 20, 22, 22)))
	if err != nil {
		t.Fatal(err)
	}
	if o.ID <= src.NextID() {
		t.Fatalf("post-reload insert got id %d, want > %d", o.ID, src.NextID())
	}
}
