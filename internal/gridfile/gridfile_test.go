package gridfile

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/bbox"
)

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid params should panic")
		}
	}()
	New(0, 8)
}

func TestInsertValidation(t *testing.T) {
	g := New(2, 4)
	if err := g.Insert([]float64{1}, 1); err == nil {
		t.Errorf("wrong-dimension point accepted")
	}
	if err := g.Insert([]float64{1, 2}, 1); err != nil {
		t.Errorf("valid insert failed: %v", err)
	}
	if g.Len() != 1 {
		t.Errorf("Len = %d", g.Len())
	}
}

func TestSearchSmall(t *testing.T) {
	g := New(2, 4)
	pts := [][]float64{{1, 1}, {2, 2}, {5, 5}, {9, 9}}
	for i, p := range pts {
		if err := g.Insert(p, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	var ids []int64
	g.Search(bbox.Rect(0, 0, 3, 3), func(_ []float64, id int64) bool {
		ids = append(ids, id)
		return true
	})
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	if len(ids) != 2 || ids[0] != 0 || ids[1] != 1 {
		t.Errorf("Search = %v", ids)
	}
}

func TestSplitsHappen(t *testing.T) {
	g := New(2, 4)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		_ = g.Insert([]float64{rng.Float64() * 100, rng.Float64() * 100}, int64(i))
	}
	if g.Splits() == 0 {
		t.Errorf("no scale refinements after 500 inserts with cap 4")
	}
	if g.NumCells() < 10 {
		t.Errorf("only %d cells after 500 inserts", g.NumCells())
	}
}

func TestDuplicatePointsOverflow(t *testing.T) {
	g := New(2, 2)
	for i := 0; i < 20; i++ {
		if err := g.Insert([]float64{3, 3}, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	count := 0
	g.Search(bbox.Rect(3, 3, 3, 3), func(_ []float64, _ int64) bool {
		count++
		return true
	})
	if count != 20 {
		t.Errorf("duplicate search found %d of 20", count)
	}
}

func TestSearchMatchesScan(t *testing.T) {
	g := New(2, 8)
	rng := rand.New(rand.NewSource(7))
	type rec struct {
		p  []float64
		id int64
	}
	var pts []rec
	for i := 0; i < 1000; i++ {
		p := []float64{rng.Float64() * 100, rng.Float64() * 100}
		pts = append(pts, rec{p, int64(i)})
		_ = g.Insert(p, int64(i))
	}
	for trial := 0; trial < 20; trial++ {
		x, y := rng.Float64()*90, rng.Float64()*90
		q := bbox.Rect(x, y, x+rng.Float64()*20, y+rng.Float64()*20)
		var got []int64
		g.Search(q, func(_ []float64, id int64) bool {
			got = append(got, id)
			return true
		})
		var want []int64
		for _, r := range pts {
			if q.ContainsPoint(r.p) {
				want = append(want, r.id)
			}
		}
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		if len(got) != len(want) {
			t.Fatalf("query %v: got %d, want %d", q, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("query %v: ids differ at %d", q, i)
			}
		}
	}
}

func TestSearchEarlyStopAndEmptyQuery(t *testing.T) {
	g := New(2, 4)
	for i := 0; i < 50; i++ {
		_ = g.Insert([]float64{float64(i), 0}, int64(i))
	}
	n := 0
	g.Search(bbox.Rect(0, 0, 100, 1), func(_ []float64, _ int64) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Errorf("early stop visited %d", n)
	}
	if got := g.Search(bbox.Empty(2), func(_ []float64, _ int64) bool { return true }); got != 0 {
		t.Errorf("empty query touched %d cells", got)
	}
}

func TestSearchDimPanics(t *testing.T) {
	g := New(2, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("wrong-dimension query should panic")
		}
	}()
	g.Search(bbox.New([]float64{0}, []float64{1}), func(_ []float64, _ int64) bool { return true })
}

func TestAll(t *testing.T) {
	g := New(3, 4)
	for i := 0; i < 30; i++ {
		_ = g.Insert([]float64{float64(i), float64(i % 5), float64(i % 3)}, int64(i))
	}
	seen := map[int64]bool{}
	g.All(func(_ []float64, id int64) bool {
		seen[id] = true
		return true
	})
	if len(seen) != 30 {
		t.Errorf("All visited %d of 30", len(seen))
	}
}

// Property: insert+search agrees with scan for 4-dim points (the
// point-transform dimensionality for 2-D boxes).
func TestQuick4DAgainstScan(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := New(4, 6)
		type rec struct {
			p  []float64
			id int64
		}
		var pts []rec
		for i := 0; i < 150; i++ {
			p := []float64{rng.Float64() * 10, rng.Float64() * 10, rng.Float64() * 10, rng.Float64() * 10}
			pts = append(pts, rec{p, int64(i)})
			if err := g.Insert(p, int64(i)); err != nil {
				return false
			}
		}
		q := bbox.New([]float64{1, 1, 1, 1}, []float64{7, 7, 7, 7})
		count := 0
		g.Search(q, func(_ []float64, _ int64) bool {
			count++
			return true
		})
		want := 0
		for _, r := range pts {
			if q.ContainsPoint(r.p) {
				want++
			}
		}
		return count == want
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
