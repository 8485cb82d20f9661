package zorder

import (
	"math/rand"

	"testing"

	"repro/internal/bbox"
)

// TestBulkLoadMatchesLooped: a bulk-built index answers overlap queries
// exactly like an insert-built one.
func TestBulkLoadMatchesLooped(t *testing.T) {
	u := bbox.Rect(0, 0, 1000, 1000)
	rng := rand.New(rand.NewSource(17))
	var boxes []bbox.Box
	var ids []int64
	looped := NewIndex(u, 16)
	for i := 0; i < 400; i++ {
		x, y := rng.Float64()*950, rng.Float64()*950
		b := bbox.Rect(x, y, x+rng.Float64()*40+1, y+rng.Float64()*40+1).Meet(u)
		boxes = append(boxes, b)
		ids = append(ids, int64(i))
		if err := looped.Insert(b, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	bulk, err := BulkLoad(u, 16, boxes, ids)
	if err != nil {
		t.Fatal(err)
	}
	if bulk.Len() != looped.Len() {
		t.Fatalf("Len = %d, want %d", bulk.Len(), looped.Len())
	}
	for _, q := range []bbox.Box{
		bbox.Rect(100, 100, 300, 300), bbox.Rect(0, 0, 1000, 1000), bbox.Rect(900, 900, 950, 950),
	} {
		get := func(ix *Index) []int64 {
			out, _ := ix.SearchOverlap(q, nil)
			return out
		}
		got, want := get(bulk), get(looped)
		if len(got) != len(want) {
			t.Fatalf("query %v: %d ids, want %d", q, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("query %v: ids differ at %d", q, i)
			}
		}
	}
}

// TestBulkLoadRejectsOutOfUniverse: any out-of-universe box fails the
// whole build.
func TestBulkLoadRejectsOutOfUniverse(t *testing.T) {
	u := bbox.Rect(0, 0, 100, 100)
	_, err := BulkLoad(u, 16,
		[]bbox.Box{bbox.Rect(1, 1, 2, 2), bbox.Rect(90, 90, 150, 150)}, []int64{1, 2})
	if err == nil {
		t.Fatal("out-of-universe box accepted")
	}
	if _, err := BulkLoad(u, 16, []bbox.Box{bbox.Rect(1, 1, 2, 2)}, nil); err == nil {
		t.Fatal("mismatched boxes/ids accepted")
	}
}
