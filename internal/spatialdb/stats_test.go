package spatialdb

import (
	"bytes"
	"testing"

	"repro/internal/bbox"
	"repro/internal/region"
)

func statsRect(x0, y0, x1, y1 float64) *region.Region {
	return region.FromBoxes(2, bbox.Rect(x0, y0, x1, y1))
}

// rebuildStatsFrom recomputes a layer's statistics from scratch out of
// its live objects — the oracle every mutation path must agree with.
func rebuildStatsFrom(t *testing.T, s *Store, layer string) bool {
	t.Helper()
	fresh := NewStore(s.Universe(), s.Kind())
	l, ok := s.LayerIfExists(layer)
	if !ok {
		t.Fatalf("layer %q missing", layer)
	}
	for _, o := range l.Objects() {
		fresh.MustInsert(layer, o.Name, o.Reg)
	}
	fl, _ := fresh.LayerIfExists(layer)
	return l.DataStats().Equal(fl.DataStats())
}

func TestDataStatsTrackMutations(t *testing.T) {
	s := NewStore(bbox.Rect(0, 0, 1000, 1000), RTree)
	s.MustInsert("towns", "a", statsRect(10, 10, 20, 20))
	s.MustInsert("towns", "b", statsRect(100, 100, 150, 150))
	if _, _, err := s.Upsert("towns", "a", statsRect(30, 30, 40, 40)); err != nil {
		t.Fatal(err)
	}
	items := []BulkItem{
		{Name: "c", Reg: statsRect(500, 500, 600, 600)},
		{Name: "d", Reg: statsRect(700, 700, 800, 800)},
	}
	if _, err := s.BulkInsert("towns", items, BulkAtomic); err != nil {
		t.Fatal(err)
	}
	if ok, err := s.Remove("towns", "b"); err != nil || !ok {
		t.Fatalf("remove: ok=%v err=%v", ok, err)
	}
	l, _ := s.LayerIfExists("towns")
	if got, want := l.DataStats().Count(), uint64(3); got != want {
		t.Fatalf("stats count = %d, want %d", got, want)
	}
	if !rebuildStatsFrom(t, s, "towns") {
		t.Fatal("incrementally maintained stats differ from a from-scratch rebuild")
	}
}

func TestSnapshotsCarryStats(t *testing.T) {
	s := NewStore(bbox.Rect(0, 0, 1000, 1000), Grid)
	for i, r := range []*region.Region{
		statsRect(10, 10, 20, 20),
		statsRect(300, 300, 350, 360),
		statsRect(40, 900, 80, 950),
	} {
		s.MustInsert("roads", string(rune('a'+i)), r)
	}
	want, _ := s.LayerIfExists("roads")

	var jsonBuf bytes.Buffer
	if err := s.Save(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	fromJSON, err := Load(&jsonBuf, Grid)
	if err != nil {
		t.Fatal(err)
	}
	jl, _ := fromJSON.LayerIfExists("roads")
	if !jl.DataStats().Equal(want.DataStats()) {
		t.Error("JSON snapshot did not restore identical statistics")
	}

	var binBuf bytes.Buffer
	if err := s.SaveBinary(&binBuf); err != nil {
		t.Fatal(err)
	}
	fromBin, err := LoadBinary(&binBuf, RTree) // backend change: stats are portable
	if err != nil {
		t.Fatal(err)
	}
	bl, _ := fromBin.LayerIfExists("roads")
	if !bl.DataStats().Equal(want.DataStats()) {
		t.Error("binary snapshot did not restore identical statistics")
	}
}
