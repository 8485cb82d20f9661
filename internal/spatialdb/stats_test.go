package spatialdb

import (
	"fmt"
	"math/rand/v2"
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

	// A seeded random insert/upsert/remove/bulk history over 2-decimal
	// coordinates, the shape of the benchmark's writes. Float edge sums
	// drift on such a history; the statistics must not depend on it.
	rng := rand.New(rand.NewPCG(7, 11))
	cents := func(lo, n int) float64 { return float64(lo+rng.IntN(n)) / 100 }
	parcel := func() *region.Region {
		x, y := cents(0, 99000), cents(0, 99000)
		return statsRect(x, y, x+cents(1, 999), y+cents(1, 999))
	}
	var names []string
	for i := 0; i < 600; i++ {
		switch op := rng.IntN(10); {
		case op < 3 || len(names) == 0:
			name := fmt.Sprintf("p%d", i)
			s.MustInsert("parcels", name, parcel())
			names = append(names, name)
		case op < 6:
			if _, _, err := s.Upsert("parcels", names[rng.IntN(len(names))], parcel()); err != nil {
				t.Fatal(err)
			}
		case op < 9:
			j := rng.IntN(len(names))
			if ok, err := s.Remove("parcels", names[j]); err != nil || !ok {
				t.Fatalf("remove %q: ok=%v err=%v", names[j], ok, err)
			}
			names[j] = names[len(names)-1]
			names = names[:len(names)-1]
		default:
			items := make([]BulkItem, 1+rng.IntN(8))
			for k := range items {
				items[k] = BulkItem{Name: fmt.Sprintf("b%d-%d", i, k), Reg: parcel()}
				names = append(names, items[k].Name)
			}
			if _, err := s.BulkInsert("parcels", items, BulkAtomic); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, layer := range []string{"towns", "parcels"} {
		if !rebuildStatsFrom(t, s, layer) {
			t.Fatalf("layer %q: incrementally maintained stats differ from a from-scratch rebuild", layer)
		}
	}
}
