package spatialdb

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"math"
	"testing"

	"repro/internal/bbox"
	"repro/internal/region"
)

// outsideBox reaches outside the [0,100]² universe. Stored, it would break
// the §4 box bounds: for `find Y in ys, X in xs where Y <= X` with
// x = [0,10]×[0,30], the planned run's lower box is ⌈y⌉, which ⌈x⌉ does
// not contain, so it would miss the solution (y, x) that RunNaiveCtx
// finds within the universe.
var outsideBox = rect(-10, 10, 10, 20)

// binSnapV1 encodes a binary v1 snapshot of a 2-d store over universe
// with one layer holding objs (ids and names as given, one box each).
func binSnapV1(universe bbox.Box, nextID int64, layer string, objs []MutObject) []byte {
	bin := append([]byte("BQSN"), 1, 0, 2, 0)
	bin = binary.LittleEndian.AppendUint64(bin, uint64(nextID))
	for _, v := range universe.AppendRun(nil) {
		bin = binary.LittleEndian.AppendUint64(bin, math.Float64bits(v))
	}
	bin = binary.AppendUvarint(bin, 1)
	bin = appendString(bin, layer)
	bin = binary.AppendUvarint(bin, uint64(len(objs)))
	for _, mo := range objs {
		bin = binary.AppendUvarint(bin, uint64(mo.ID))
		bin = appendString(bin, mo.Name)
		bin = binary.AppendUvarint(bin, 1)
		for _, v := range mo.Boxes[0].AppendRun(nil) {
			bin = binary.LittleEndian.AppendUint64(bin, math.Float64bits(v))
		}
	}
	return binary.LittleEndian.AppendUint32(bin, crc32.ChecksumIEEE(bin))
}

// TestOutOfUniverseRefused: every entry point refuses an object whose
// bounding box is not inside the universe, on every backend. A refused
// write leaves the objects, the epoch and NextID as they were and logs
// nothing; a snapshot holding such an object does not load.
func TestOutOfUniverseRefused(t *testing.T) {
	y := region.FromBox(outsideBox)
	writes := []struct {
		name  string
		write func(s *Store) error
	}{
		{"Insert", func(s *Store) error { _, err := s.Insert("towns", "y", y); return err }},
		{"Upsert", func(s *Store) error { _, _, err := s.Upsert("towns", "y", y); return err }},
		{"Upsert replacing", func(s *Store) error { _, _, err := s.Upsert("towns", "a", y); return err }},
		{"BulkInsert atomic", func(s *Store) error {
			_, err := s.BulkInsert("towns", []BulkItem{{Name: "y", Reg: y}}, BulkAtomic)
			return err
		}},
		{"BulkInsert best-effort", func(s *Store) error {
			rep, err := s.BulkInsert("towns", []BulkItem{{Name: "y", Reg: y}}, BulkBestEffort)
			if err == nil && rep.Inserted == 0 {
				err = rep.Results[0].Err
			}
			return err
		}},
		{"ApplyReplicated insert", func(s *Store) error {
			return s.ApplyReplicated(&Mutation{Op: OpInsert, Layer: "towns",
				Objects: []MutObject{{ID: s.NextID() + 1, Name: "y", Boxes: []bbox.Box{outsideBox}}}})
		}},
		{"ApplyReplicated bulk", func(s *Store) error {
			return s.ApplyReplicated(&Mutation{Op: OpBulkInsert, Layer: "ys",
				Objects: []MutObject{{ID: s.NextID() + 1, Name: "y", Boxes: []bbox.Box{outsideBox}}}})
		}},
	}
	u := rect(0, 0, 100, 100)
	ys := []MutObject{{ID: 1, Name: "y", Boxes: []bbox.Box{outsideBox}}}
	doc := snapshot{Version: 2, NextID: 1, Universe: toSnapBox(u),
		Layers: []snapLayer{{Name: "ys", Objects: []snapObject{{ID: 1, Name: "y", Boxes: []snapBox{toSnapBox(outsideBox)}}}}}}
	js, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	bin := binSnapV1(u, 1, "ys", ys)
	for _, kind := range allKinds {
		for _, w := range writes {
			label := kind.String() + " " + w.name
			s := storeWithA(kind)
			sink := &recordingSink{}
			s.SetMutationSink(sink.log)
			epoch, next := s.Epoch(), s.NextID()
			if err := w.write(s); err == nil {
				t.Errorf("%s: an object outside the universe was accepted", label)
			}
			equalStores(t, storeWithA(kind), s, label)
			if s.Epoch() != epoch || s.NextID() != next {
				t.Errorf("%s: epoch %d -> %d, NextID %d -> %d", label, epoch, s.Epoch(), next, s.NextID())
			}
			if len(sink.recs) != 0 {
				t.Errorf("%s: a refused write logged %d records", label, len(sink.recs))
			}
		}
		if _, err := Load(bytes.NewReader(js), kind); err == nil {
			t.Errorf("%v: JSON Load accepted an object outside the universe", kind)
		}
		if _, err := LoadBinary(bytes.NewReader(bin), kind); err == nil {
			t.Errorf("%v: LoadBinary accepted an object outside the universe", kind)
		}
		// The same documents with the object inside the universe load.
		inside := []MutObject{{ID: 1, Name: "y", Boxes: []bbox.Box{rect(0, 10, 10, 20)}}}
		if _, err := LoadBinary(bytes.NewReader(binSnapV1(u, 1, "ys", inside)), kind); err != nil {
			t.Errorf("%v: LoadBinary of the control snapshot: %v", kind, err)
		}
	}
}
