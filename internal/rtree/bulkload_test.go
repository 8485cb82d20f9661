package rtree

import (
	"testing"

	"repro/internal/bbox"
)

func TestBulkLoadEmpty(t *testing.T) {
	tr, err := BulkLoad(2, nil)
	if err != nil || tr.Len() != 0 {
		t.Fatalf("empty bulk load: %v, len %d", err, tr.Len())
	}
	// Usable afterwards.
	if err := tr.Insert(rect(0, 0, 1, 1), 1); err != nil {
		t.Fatal(err)
	}
}

func TestBulkLoadValidation(t *testing.T) {
	if _, err := BulkLoad(2, []Entry{{Box: bbox.Empty(2), ID: 1}}); err == nil {
		t.Errorf("empty box accepted")
	}
	if _, err := BulkLoad(2, []Entry{{Box: bbox.New([]float64{0}, []float64{1}), ID: 1}}); err == nil {
		t.Errorf("wrong-dimension box accepted")
	}
}

func TestBulkLoadMatchesIncremental(t *testing.T) {
	boxes := randomBoxes(1000, 77)
	entries := make([]Entry, len(boxes))
	inc := New(2)
	for i, b := range boxes {
		entries[i] = Entry{Box: b, ID: int64(i)}
		if err := inc.Insert(b, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	bulk, err := BulkLoad(2, entries)
	if err != nil {
		t.Fatal(err)
	}
	if bulk.Len() != inc.Len() {
		t.Fatalf("bulk len %d, incremental %d", bulk.Len(), inc.Len())
	}
	if err := bulk.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, q := range randomBoxes(30, 5) {
		a := collectIDs(func(v func(int64) bool) int { return bulk.SearchOverlap(q, v) })
		b := collectIDs(func(v func(int64) bool) int { return inc.SearchOverlap(q, v) })
		if !equalIDs(a, b) {
			t.Fatalf("bulk and incremental disagree on %v: %d vs %d", q, len(a), len(b))
		}
	}
}

func TestBulkLoadIsDynamicAfterwards(t *testing.T) {
	boxes := randomBoxes(200, 13)
	entries := make([]Entry, len(boxes))
	for i, b := range boxes {
		entries[i] = Entry{Box: b, ID: int64(i)}
	}
	tr, err := BulkLoad(2, entries)
	if err != nil {
		t.Fatal(err)
	}
	// Insert after bulk loading.
	if err := tr.Insert(rect(500, 500, 501, 501), 9999); err != nil {
		t.Fatal(err)
	}
	if err := tr.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	ids := collectIDs(func(v func(int64) bool) int {
		return tr.SearchOverlap(rect(-1e9, -1e9, 1e9, 1e9), v)
	})
	if len(ids) != 201 {
		t.Fatalf("len after mutations = %d", len(ids))
	}
}

func TestBulkLoadPacksTighter(t *testing.T) {
	// STR should touch no more nodes than incremental insertion on a
	// clustered query (usually strictly fewer).
	boxes := randomBoxes(2000, 31)
	entries := make([]Entry, len(boxes))
	inc := New(2, WithBranching(2, 8))
	for i, b := range boxes {
		entries[i] = Entry{Box: b, ID: int64(i)}
		_ = inc.Insert(b, int64(i))
	}
	bulk, err := BulkLoad(2, entries, WithBranching(2, 8))
	if err != nil {
		t.Fatal(err)
	}
	q := rect(20, 20, 40, 40)
	tb := bulk.SearchOverlap(q, func(int64) bool { return true })
	ti := inc.SearchOverlap(q, func(int64) bool { return true })
	if tb > ti {
		t.Errorf("bulk-loaded tree touched %d nodes, incremental %d", tb, ti)
	}
	if bulk.Height() > inc.Height() {
		t.Errorf("bulk height %d > incremental %d", bulk.Height(), inc.Height())
	}
}

func TestBulkLoadFullyPackedLeaves(t *testing.T) {
	// 64 entries with fanout 8 should pack into exactly 8 full leaves and
	// one root: height 2, every leaf full.
	var entries []Entry
	for i := 0; i < 64; i++ {
		x := float64(i%8) * 10
		y := float64(i/8) * 10
		entries = append(entries, Entry{Box: rect(x, y, x+1, y+1), ID: int64(i)})
	}
	tr, err := BulkLoad(2, entries, WithBranching(2, 8))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Height() != 2 {
		t.Errorf("height = %d, want 2", tr.Height())
	}
	if err := tr.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}
