package spatialdb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
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
	if _, err := DecodeMutation(hugeDimRecord()); err == nil {
		t.Error("decode accepted a box of dimension 2^60")
	}
}

// hugeDimRecord is a 16-byte insert whose one box claims dimension 2^60:
// 16·k wraps to 0, so a length guard on the product lets it through to
// an allocation of 2^60 floats.
func hugeDimRecord() []byte {
	return binary.AppendUvarint([]byte{byte(OpInsert), 1, 't', 1, 1, 'a', 1}, 1<<60)
}

// recordingSink captures the encoded mutation stream the way the WAL
// would, so tests can replay it.
type recordingSink struct{ recs [][]byte }

func (rs *recordingSink) log(m *Mutation) error {
	rs.recs = append(rs.recs, AppendMutation(nil, m))
	return nil
}

// mutateScript drives every mutating entry point against s. Each call
// that succeeds emits exactly one record. It ends with two writes the
// store refuses — an atomic BulkInsert and an Upsert, each with a box
// outside the universe — which must change nothing, as they log nothing.
func mutateScript(t testing.TB, s *Store) {
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
	outside := region.FromBox(rect(90, 90, 150, 150))
	items = []BulkItem{{Name: "r3", Reg: region.FromBox(rect(0, 70, 80, 72))}, {Name: "r4", Reg: outside}}
	if _, err := s.BulkInsert("roads", items, BulkAtomic); err == nil {
		t.Fatal("atomic BulkInsert of an out-of-universe box succeeded")
	}
	if _, _, err := s.Upsert("towns", "", outside); err == nil {
		t.Fatal("Upsert of an out-of-universe box succeeded")
	}
}

// equalStores fails the test unless a and b hold identical content:
// universe, layer order, and per layer the objects' ids, names and
// regions in ascending id order and the planner statistics, plus the id
// counter.
func equalStores(t testing.TB, a, b *Store, label string) {
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
			if err := dst.ApplyReplicated(m); err != nil {
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

// The apply-path tests below pin records the store must refuse without
// changing anything. boolqd passes regions to the store, so its handlers
// answer the refused local writes at the end of mutateScript with 400. A
// duplicate id, a replayed upsert of a box outside the universe and a NaN
// coordinate need a record that passes its CRC but that boolqd's own
// primary would not write: a crafted or faulty /repl/wal stream, or a log
// written by a buggy build.

// storeConsistent fails the test unless every layer's Len, Objects and a
// match-all Search agree, ids are unique across the store, and NextID is
// at or above every id.
func storeConsistent(t testing.TB, s *Store, label string) {
	t.Helper()
	all := bbox.RangeSpec{K: s.K(), Lower: bbox.Empty(s.K()), Upper: bbox.Univ(s.K())}
	layerOf := map[int64]string{}
	for _, name := range s.LayerNames() {
		l := s.Layer(name)
		objs := l.Objects()
		found := 0
		l.Search(all, func(Object) bool { found++; return true })
		if l.Len() != len(objs) || found != len(objs) {
			t.Fatalf("%s: layer %q: Len %d, Objects %d, Search %d", label, name, l.Len(), len(objs), found)
		}
		for _, o := range objs {
			if prev, dup := layerOf[o.ID]; dup {
				t.Fatalf("%s: id %d in layers %q and %q", label, o.ID, prev, name)
			}
			layerOf[o.ID] = name
			if o.ID > s.NextID() {
				t.Fatalf("%s: id %d above NextID %d", label, o.ID, s.NextID())
			}
		}
	}
}

// storeWithA returns a store of the given kind holding object "a" (id 1)
// in layer "towns".
func storeWithA(kind IndexKind) *Store {
	s := NewStore(rect(0, 0, 100, 100), kind)
	s.MustInsert("towns", "a", region.FromBox(rect(1, 1, 3, 3)))
	return s
}

// dupIDRecord inserts "b" under id 1, which storeWithA's "a" holds.
func dupIDRecord(layer string) *Mutation {
	return &Mutation{Op: OpInsert, Layer: layer, Objects: []MutObject{
		{ID: 1, Name: "b", Boxes: []bbox.Box{rect(5, 5, 7, 7)}},
	}}
}

// nanRecord inserts "b" with a NaN corner.
func nanRecord() *Mutation {
	nan := bbox.Box{K: 2, Lo: []float64{math.NaN(), 5}, Hi: []float64{7, 7}}
	return &Mutation{Op: OpInsert, Layer: "towns", Objects: []MutObject{{ID: 2, Name: "b", Boxes: []bbox.Box{nan}}}}
}

func TestApplyReplicatedRejectsDuplicateID(t *testing.T) {
	for _, layer := range []string{"towns", "roads"} {
		s := storeWithA(RTree)
		epoch := s.Epoch()
		if err := s.ApplyReplicated(dupIDRecord(layer)); err == nil {
			t.Errorf("%s: a second object with id 1 was accepted", layer)
		}
		equalStores(t, storeWithA(RTree), s, layer)
		storeConsistent(t, s, layer)
		if o, ok := s.Layer("towns").Get(1); !ok || o.Name != "a" {
			t.Errorf("%s: id 1 resolves to %+v, %v; want a", layer, o, ok)
		}
		if s.Epoch() != epoch {
			t.Errorf("%s: rejected record moved the epoch %d -> %d", layer, epoch, s.Epoch())
		}
	}
}

func TestApplyReplicatedUpsertKeepsOldOnRejection(t *testing.T) {
	for _, kind := range allKinds {
		replayed := storeWithA(kind)
		if err := replayed.ApplyReplicated(outsideUpsertRecord()); err == nil {
			t.Fatalf("%v: replayed upsert of an out-of-universe box succeeded", kind)
		}
		equalStores(t, storeWithA(kind), replayed, kind.String()+" replayed upsert")
		storeConsistent(t, replayed, kind.String()+" replayed upsert")

		local := storeWithA(kind)
		if _, _, err := local.Upsert("towns", "a", region.FromBox(outsideBox)); err == nil {
			t.Fatalf("%v: local upsert of an out-of-universe box succeeded", kind)
		}
		equalStores(t, storeWithA(kind), local, kind.String()+" local upsert")
	}
}

// outsideUpsertRecord replaces storeWithA's "a" by outsideBox.
func outsideUpsertRecord() *Mutation {
	return &Mutation{Op: OpUpsert, Layer: "towns", Objects: []MutObject{{ID: 2, Name: "a", Boxes: []bbox.Box{outsideBox}}}}
}

func TestApplyReplicatedRejectsNaN(t *testing.T) {
	s := storeWithA(RTree)
	m, err := DecodeMutation(AppendMutation(nil, nanRecord()))
	if err == nil {
		err = s.ApplyReplicated(m)
	}
	if err == nil {
		t.Fatal("a record with a NaN coordinate was applied")
	}
	equalStores(t, storeWithA(RTree), s, "nan")
}

// FuzzMutation decodes arbitrary bytes as a mutation record and applies
// whatever decodes to a store rebuilt from mutateScript's records, on
// every backend. Nothing may panic; a rejected record must leave the
// store and its epoch as they were; an accepted one must leave the store
// consistent (see storeConsistent) with every object inside the
// universe; and every decoded record must survive an encode/decode round
// trip.
func FuzzMutation(f *testing.F) {
	u := rect(0, 0, 100, 100)
	src := NewStore(u, RTree)
	sink := &recordingSink{}
	src.SetMutationSink(sink.log)
	mutateScript(f, src)
	for _, rec := range sink.recs {
		f.Add(rec)
	}
	f.Add(AppendMutation(nil, dupIDRecord("towns")))
	f.Add(AppendMutation(nil, nanRecord()))
	f.Add(hugeDimRecord())
	f.Add(AppendMutation(nil, outsideUpsertRecord()))

	replay := func(t *testing.T, kind IndexKind) *Store {
		s := NewStore(u, kind)
		for i, rec := range sink.recs {
			m, err := DecodeMutation(rec)
			if err == nil {
				err = s.ApplyReplicated(m)
			}
			if err != nil {
				t.Fatalf("%v: replaying record %d: %v", kind, i, err)
			}
		}
		return s
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeMutation(data)
		if err != nil {
			return
		}
		// Compared by encoding, which writes every field of a decoded
		// record bit for bit: NaN ≠ NaN under reflect.DeepEqual.
		enc := AppendMutation(nil, m)
		back, err := DecodeMutation(enc)
		if err != nil {
			t.Fatalf("re-decoding an encoded record: %v", err)
		}
		if !bytes.Equal(AppendMutation(nil, back), enc) {
			t.Fatalf("round trip changed the record:\n got %+v\nwant %+v", back, m)
		}
		for _, kind := range allKinds {
			s := replay(t, kind)
			epoch := s.Epoch()
			if err := s.ApplyReplicated(m); err != nil {
				equalStores(t, replay(t, kind), s, kind.String())
				if s.Epoch() != epoch {
					t.Fatalf("%v: rejected record moved the epoch %d -> %d", kind, epoch, s.Epoch())
				}
				continue
			}
			storeConsistent(t, s, kind.String())
			for _, name := range s.LayerNames() {
				for _, o := range s.Layer(name).Objects() {
					if !u.Contains(o.Box) {
						t.Fatalf("%v: stored %q/%q at %v, outside the universe", kind, name, o.Name, o.Box)
					}
				}
			}
		}
	})
}
