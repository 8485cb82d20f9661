package zorder

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bbox"
)

func TestIndexInsertValidation(t *testing.T) {
	ix := NewIndex(bbox.Rect(0, 0, 100, 100), 0)
	if err := ix.Insert(bbox.Empty(2), 1); err == nil {
		t.Errorf("empty box accepted")
	}
	if err := ix.Insert(bbox.Rect(90, 90, 110, 110), 1); err == nil {
		t.Errorf("out-of-universe box accepted")
	}
	if err := ix.Insert(bbox.Rect(1, 1, 2, 2), 1); err != nil {
		t.Errorf("valid insert failed: %v", err)
	}
	if ix.Len() != 1 {
		t.Errorf("Len = %d", ix.Len())
	}
}

func TestIndexSearchMatchesScan(t *testing.T) {
	u := bbox.Rect(0, 0, 1000, 1000)
	ix := NewIndex(u, 16)
	rng := rand.New(rand.NewSource(4))
	var boxes []bbox.Box
	for i := 0; i < 500; i++ {
		x, y := rng.Float64()*950, rng.Float64()*950
		b := bbox.Rect(x, y, x+rng.Float64()*40+1, y+rng.Float64()*40+1)
		b = b.Meet(u)
		boxes = append(boxes, b)
		if err := ix.Insert(b, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for trial := 0; trial < 25; trial++ {
		x, y := rng.Float64()*900, rng.Float64()*900
		q := bbox.Rect(x, y, x+rng.Float64()*80+1, y+rng.Float64()*80+1).Meet(u)
		got, _ := ix.SearchOverlap(q, nil)
		var want []int64
		for i, b := range boxes {
			if b.Overlaps(q) {
				want = append(want, int64(i))
			}
		}
		if len(got) != len(want) {
			t.Fatalf("query %v: got %d, want %d", q, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("query %v: id mismatch at %d", q, i)
			}
		}
	}
}

func TestIndexSearchEarlyStopAndOrder(t *testing.T) {
	ix := NewIndex(bbox.Rect(0, 0, 100, 100), 8)
	for i := 0; i < 20; i++ {
		_ = ix.Insert(bbox.Rect(float64(i), 0, float64(i)+1, 1), int64(i))
	}
	got, _ := ix.SearchOverlap(bbox.Rect(0, 0, 100, 1), []int64{-1})
	if len(got) != 21 || got[0] != -1 || !slices.IsSorted(got) {
		t.Errorf("append / order wrong: %v", got)
	}
}

func TestIndexAll(t *testing.T) {
	ix := NewIndex(bbox.Rect(0, 0, 100, 100), 8)
	for i := 0; i < 10; i++ {
		_ = ix.Insert(bbox.Rect(float64(i), 0, float64(i)+1, 1), int64(i))
	}
	n := 0
	ix.All(func(id int64) bool {
		if id != int64(n) {
			t.Fatalf("All out of order: %d at position %d", id, n)
		}
		n++
		return true
	})
	if n != 10 {
		t.Errorf("All visited %d of 10", n)
	}
}

// Ancestor/descendant matching: a tiny stored box must be found by a huge
// query and vice versa.
func TestIndexPrefixRelations(t *testing.T) {
	u := bbox.Rect(0, 0, 1024, 1024)
	ix := NewIndex(u, 16)
	_ = ix.Insert(bbox.Rect(511, 511, 513, 513), 1) // straddles the center
	_ = ix.Insert(bbox.Rect(0.1, 0.1, 0.2, 0.2), 2) // one tiny leaf cell
	found := map[int64]bool{}
	ids, _ := ix.SearchOverlap(bbox.Rect(0, 0, 1024, 1024), nil)
	for _, id := range ids {
		found[id] = true
	}
	if !found[1] || !found[2] {
		t.Errorf("universe query missed stored boxes: %v", found)
	}
	found = map[int64]bool{}
	ids, _ = ix.SearchOverlap(bbox.Rect(0.05, 0.05, 0.3, 0.3), nil)
	for _, id := range ids {
		found[id] = true
	}
	if !found[2] || found[1] {
		t.Errorf("tiny query wrong: %v", found)
	}
}
