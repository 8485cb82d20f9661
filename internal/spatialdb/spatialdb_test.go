package spatialdb

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bbox"
	"repro/internal/region"
)

func rect(x0, y0, x1, y1 float64) bbox.Box { return bbox.Rect(x0, y0, x1, y1) }

var allKinds = []IndexKind{Scan, RTree, PointRTree, Grid, ZOrderIdx}

func TestIndexKindString(t *testing.T) {
	for _, k := range allKinds {
		if k.String() == "" {
			t.Errorf("empty name for kind %d", int(k))
		}
	}
	if IndexKind(99).String() == "" {
		t.Errorf("unknown kind renders empty")
	}
}

func TestParseIndexKind(t *testing.T) {
	for _, k := range allKinds {
		got, err := ParseIndexKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseIndexKind(%q) = %v, %v; want %v", k.String(), got, err, k)
		}
	}
	for _, name := range []string{"", "RTree", "grid", "IndexKind(99)"} {
		if k, err := ParseIndexKind(name); err == nil {
			t.Errorf("ParseIndexKind(%q) = %v, want an error", name, k)
		}
	}
}

func TestStoreBasics(t *testing.T) {
	s := NewStore(rect(0, 0, 100, 100), Scan)
	if s.K() != 2 {
		t.Fatalf("K = %d", s.K())
	}
	l := s.Layer("towns")
	if !s.HasLayer("towns") || s.HasLayer("roads") {
		t.Errorf("HasLayer wrong")
	}
	o := s.MustInsert("towns", "t1", region.FromBox(rect(1, 1, 2, 2)))
	if o.ID == 0 || l.Len() != 1 {
		t.Errorf("insert failed: %+v", o)
	}
	got, ok := l.Get(o.ID)
	if !ok || got.Name != "t1" {
		t.Errorf("Get = %+v, %v", got, ok)
	}
	if _, ok := l.Get(999); ok {
		t.Errorf("Get of missing id succeeded")
	}
	names := s.LayerNames()
	if len(names) != 1 || names[0] != "towns" {
		t.Errorf("LayerNames = %v", names)
	}
	if len(l.Objects()) != 1 {
		t.Errorf("Objects len wrong")
	}
}

func TestInsertEmptyRegionFails(t *testing.T) {
	s := NewStore(rect(0, 0, 100, 100), Scan)
	if _, err := s.Insert("x", "bad", region.Empty(2)); err == nil {
		t.Errorf("empty region accepted")
	}
}

func TestNewStorePanicsOnEmptyUniverse(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty universe should panic")
		}
	}()
	NewStore(bbox.Empty(2), Scan)
}

// populate fills a layer with deterministic random boxes and returns them.
func populate(s *Store, layer string, n int, seed int64) []Object {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Object, n)
	for i := 0; i < n; i++ {
		x, y := rng.Float64()*90, rng.Float64()*90
		w, h := rng.Float64()*8+0.5, rng.Float64()*8+0.5
		out[i] = s.MustInsert(layer, "", region.FromBox(rect(x, y, x+w, y+h)))
	}
	return out
}

// All five backends must return identical ids for identical specs — the
// E11 invariant.
func TestE11AllBackendsAgree(t *testing.T) {
	specs := []bbox.RangeSpec{
		{K: 2, Lower: bbox.Empty(2), Upper: rect(0, 0, 50, 50)},
		{K: 2, Lower: rect(30, 30, 32, 32), Upper: bbox.Univ(2)},
		{K: 2, Lower: bbox.Empty(2), Upper: bbox.Univ(2),
			Overlaps: []bbox.Box{rect(20, 20, 40, 40)}},
		{K: 2, Lower: bbox.Empty(2), Upper: rect(0, 0, 80, 80),
			Overlaps: []bbox.Box{rect(10, 10, 30, 30), rect(20, 20, 50, 50)}},
		{K: 2, Lower: rect(99, 99, 100, 100), Upper: rect(0, 0, 1, 1)}, // unsat
		{K: 2, Lower: bbox.Empty(2), Upper: bbox.Empty(2)},             // empty upper
	}
	var results [][][]int64
	for _, kind := range allKinds {
		s := NewStore(rect(0, 0, 100, 100), kind)
		populate(s, "objs", 500, 11)
		var perSpec [][]int64
		for _, spec := range specs {
			var ids []int64
			s.Layer("objs").Search(spec, func(o Object) bool {
				ids = append(ids, o.ID)
				return true
			})
			perSpec = append(perSpec, ids)
			if !slices.IsSorted(ids) {
				t.Fatalf("%v: results not in id order", kind)
			}
		}
		results = append(results, perSpec)
	}
	for i := 1; i < len(results); i++ {
		for j := range specs {
			if !slices.Equal(results[i][j], results[0][j]) {
				t.Errorf("backend %v disagrees with scan on spec %d: %d vs %d ids",
					allKinds[i], j, len(results[i][j]), len(results[0][j]))
			}
		}
	}
}

func TestSearchEarlyStop(t *testing.T) {
	s := NewStore(rect(0, 0, 100, 100), RTree)
	populate(s, "objs", 100, 3)
	n := 0
	s.Layer("objs").Search(bbox.AllSpec(2), func(Object) bool {
		n++
		return n < 4
	})
	if n != 4 {
		t.Errorf("early stop visited %d", n)
	}
}

func TestStatsAccounting(t *testing.T) {
	s := NewStore(rect(0, 0, 100, 100), RTree)
	populate(s, "objs", 200, 5)
	l := s.Layer("objs")
	l.ResetStats()
	spec := bbox.RangeSpec{K: 2, Lower: bbox.Empty(2), Upper: rect(0, 0, 30, 30)}
	count := 0
	l.Search(spec, func(Object) bool {
		count++
		return true
	})
	st := l.Stats()
	if st.Queries != 1 {
		t.Errorf("Queries = %d", st.Queries)
	}
	if st.Returned != count {
		t.Errorf("Returned = %d, visited %d", st.Returned, count)
	}
	if st.Touched == 0 {
		t.Errorf("Touched = 0")
	}
	total := s.TotalStats()
	if total.Queries != 1 {
		t.Errorf("TotalStats.Queries = %d", total.Queries)
	}
	s.ResetStats()
	if s.TotalStats().Queries != 0 {
		t.Errorf("ResetStats did not clear")
	}
}

// The point-transform backends must prune: a selective query should scan
// far fewer candidates than the layer size.
func TestPointBackendsPrune(t *testing.T) {
	for _, kind := range []IndexKind{PointRTree, Grid} {
		s := NewStore(rect(0, 0, 1000, 1000), kind)
		rng := rand.New(rand.NewSource(17))
		for i := 0; i < 2000; i++ {
			x, y := rng.Float64()*990, rng.Float64()*990
			s.MustInsert("objs", "", region.FromBox(rect(x, y, x+2, y+2)))
		}
		l := s.Layer("objs")
		l.ResetStats()
		spec := bbox.RangeSpec{
			K: 2, Lower: bbox.Empty(2), Upper: rect(100, 100, 130, 130),
		}
		l.Search(spec, func(Object) bool { return true })
		st := l.Stats()
		if st.Scanned*4 > l.Len() {
			t.Errorf("%v: scanned %d of %d objects — no pruning", kind, st.Scanned, l.Len())
		}
	}
}

func TestAllVisitsInOrder(t *testing.T) {
	s := NewStore(rect(0, 0, 10, 10), Scan)
	a := s.MustInsert("l", "a", region.FromBox(rect(0, 0, 1, 1)))
	b := s.MustInsert("l", "b", region.FromBox(rect(1, 1, 2, 2)))
	var ids []int64
	s.Layer("l").All(func(o Object) bool {
		ids = append(ids, o.ID)
		return true
	})
	if len(ids) != 2 || ids[0] != a.ID || ids[1] != b.ID {
		t.Errorf("All order = %v", ids)
	}
}
