package rtree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/bbox"
)

func rect(x0, y0, x1, y1 float64) bbox.Box { return bbox.Rect(x0, y0, x1, y1) }

// collectIDs gathers and sorts result IDs.
func collectIDs(search func(func(int64) bool) int) []int64 {
	var ids []int64
	search(func(id int64) bool {
		ids = append(ids, id)
		return true
	})
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid branching should panic")
		}
	}()
	New(2, WithBranching(3, 4))
}

func TestInsertValidation(t *testing.T) {
	tr := New(2)
	if err := tr.Insert(bbox.Empty(2), 1); err == nil {
		t.Errorf("empty box accepted")
	}
	if err := tr.Insert(bbox.New([]float64{0}, []float64{1}), 1); err == nil {
		t.Errorf("wrong-dimension box accepted")
	}
	if err := tr.Insert(rect(0, 0, 1, 1), 1); err != nil {
		t.Errorf("valid insert failed: %v", err)
	}
	if tr.Len() != 1 {
		t.Errorf("Len = %d", tr.Len())
	}
}

func TestSmallOverlapSearch(t *testing.T) {
	tr := New(2)
	boxes := []bbox.Box{
		rect(0, 0, 1, 1), rect(2, 2, 3, 3), rect(0.5, 0.5, 2.5, 2.5),
		rect(10, 10, 11, 11),
	}
	for i, b := range boxes {
		if err := tr.Insert(b, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Closed-box semantics: box 1 touches the query at its corner (2,2)
	// and therefore overlaps.
	ids := collectIDs(func(v func(int64) bool) int { return tr.SearchOverlap(rect(0, 0, 2, 2), v) })
	want := []int64{0, 1, 2}
	if !equalIDs(ids, want) {
		t.Errorf("overlap ids = %v, want %v", ids, want)
	}
	// Shrinking the query below the corner excludes box 1.
	ids = collectIDs(func(v func(int64) bool) int { return tr.SearchOverlap(rect(0, 0, 1.9, 1.9), v) })
	want = []int64{0, 2}
	if !equalIDs(ids, want) {
		t.Errorf("overlap ids = %v, want %v", ids, want)
	}
}

// containedIn is the containment query "box inside q" as a range spec.
func containedIn(q bbox.Box) bbox.RangeSpec {
	return bbox.RangeSpec{K: q.K, Lower: bbox.Empty(q.K), Upper: q}
}

func TestContainedSearch(t *testing.T) {
	tr := New(2)
	_ = tr.Insert(rect(0, 0, 1, 1), 0)
	_ = tr.Insert(rect(0, 0, 5, 5), 1)
	_ = tr.Insert(rect(2, 2, 3, 3), 2)
	ids := collectIDs(func(v func(int64) bool) int { return tr.SearchSpec(containedIn(rect(0, 0, 3.5, 3.5)), v) })
	if len(ids) != 2 || ids[0] != 0 || ids[1] != 2 {
		t.Errorf("contained ids = %v", ids)
	}
}

func TestEarlyTermination(t *testing.T) {
	tr := New(2)
	for i := 0; i < 100; i++ {
		_ = tr.Insert(rect(float64(i), 0, float64(i)+1, 1), int64(i))
	}
	count := 0
	tr.SearchOverlap(rect(0, 0, 200, 1), func(int64) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Errorf("visitor ran %d times after requesting stop at 5", count)
	}
}

// randomBoxes generates n deterministic pseudo-random small boxes.
func randomBoxes(n int, seed int64) []bbox.Box {
	rng := rand.New(rand.NewSource(seed))
	out := make([]bbox.Box, n)
	for i := range out {
		x, y := rng.Float64()*100, rng.Float64()*100
		w, h := rng.Float64()*10+0.1, rng.Float64()*10+0.1
		out[i] = rect(x, y, x+w, y+h)
	}
	return out
}

// Exhaustive cross-check against linear scan for overlap and containment
// search, both split strategies.
func TestSearchMatchesLinearScan(t *testing.T) {
	for _, strat := range []SplitStrategy{QuadraticSplit, LinearSplit} {
		tr := New(2, WithSplit(strat), WithBranching(2, 5))
		boxes := randomBoxes(400, 42)
		for i, b := range boxes {
			if err := tr.Insert(b, int64(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := tr.checkInvariants(); err != nil {
			t.Fatalf("strategy %v: %v", strat, err)
		}
		queries := randomBoxes(25, 7)
		for _, q := range queries {
			got := collectIDs(func(v func(int64) bool) int { return tr.SearchOverlap(q, v) })
			var want []int64
			for i, b := range boxes {
				if b.Overlaps(q) {
					want = append(want, int64(i))
				}
			}
			if !equalIDs(got, want) {
				t.Fatalf("overlap mismatch for %v: got %d ids, want %d", q, len(got), len(want))
			}
			gotC := collectIDs(func(v func(int64) bool) int { return tr.SearchSpec(containedIn(q), v) })
			var wantC []int64
			for i, b := range boxes {
				if q.Contains(b) {
					wantC = append(wantC, int64(i))
				}
			}
			if !equalIDs(gotC, wantC) {
				t.Fatalf("contained mismatch for %v", q)
			}
		}
	}
}

func TestSearchSpecMatchesDirectFilter(t *testing.T) {
	tr := New(2, WithBranching(2, 6))
	boxes := randomBoxes(300, 99)
	for i, b := range boxes {
		_ = tr.Insert(b, int64(i))
	}
	specs := []bbox.RangeSpec{
		{K: 2, Lower: bbox.Empty(2), Upper: rect(0, 0, 50, 50)},
		{K: 2, Lower: rect(20, 20, 21, 21), Upper: bbox.Univ(2)},
		{K: 2, Lower: bbox.Empty(2), Upper: bbox.Univ(2),
			Overlaps: []bbox.Box{rect(40, 40, 60, 60)}},
		{K: 2, Lower: bbox.Empty(2), Upper: rect(0, 0, 70, 70),
			Overlaps: []bbox.Box{rect(10, 10, 30, 30), rect(25, 25, 45, 45)}},
	}
	for _, spec := range specs {
		got := collectIDs(func(v func(int64) bool) int { return tr.SearchSpec(spec, v) })
		var want []int64
		for i, b := range boxes {
			if spec.Matches(b) {
				want = append(want, int64(i))
			}
		}
		if !equalIDs(got, want) {
			t.Fatalf("spec %+v: got %d ids, want %d", spec, len(got), len(want))
		}
	}
}

func TestSearchSpecUnsatisfiable(t *testing.T) {
	tr := New(2)
	_ = tr.Insert(rect(0, 0, 1, 1), 1)
	spec := bbox.RangeSpec{K: 2, Lower: rect(5, 5, 6, 6), Upper: rect(0, 0, 1, 1)}
	touched := tr.SearchSpec(spec, func(int64) bool {
		t.Fatal("visitor called on unsatisfiable spec")
		return false
	})
	if touched != 0 {
		t.Errorf("touched %d nodes on unsatisfiable spec", touched)
	}
}

func TestHeightGrows(t *testing.T) {
	tr := New(2, WithBranching(2, 4))
	if tr.Height() != 1 {
		t.Fatalf("empty height = %d", tr.Height())
	}
	for i, b := range randomBoxes(300, 3) {
		_ = tr.Insert(b, int64(i))
	}
	if tr.Height() < 3 {
		t.Errorf("height %d after 300 inserts with fanout 4", tr.Height())
	}
	if err := tr.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAllVisitsEverything(t *testing.T) {
	tr := New(2)
	for i, b := range randomBoxes(123, 11) {
		_ = tr.Insert(b, int64(i))
	}
	seen := map[int64]bool{}
	tr.All(func(e Entry) bool {
		seen[e.ID] = true
		return true
	})
	if len(seen) != 123 {
		t.Errorf("All visited %d of 123", len(seen))
	}
}

func TestSearchPrunes(t *testing.T) {
	// Clustered data: a query hitting one cluster must touch far fewer
	// nodes than the whole tree.
	tr := New(2, WithBranching(2, 4))
	n := 0
	for cluster := 0; cluster < 10; cluster++ {
		cx := float64(cluster * 1000)
		for i := 0; i < 100; i++ {
			_ = tr.Insert(rect(cx+float64(i), 0, cx+float64(i)+1, 1), int64(n))
			n++
		}
	}
	touched := tr.SearchOverlap(rect(0, 0, 50, 1), func(int64) bool { return true })
	total := tr.SearchOverlap(rect(-1e9, -1e9, 1e9, 1e9), func(int64) bool { return true })
	if touched*4 > total {
		t.Errorf("clustered query touched %d nodes of %d — no pruning", touched, total)
	}
}

// Property: after any sequence of inserts, search agrees with scan.
func TestQuickInsertSearchAgainstScan(t *testing.T) {
	check := func(seed int64, qx, qy uint8) bool {
		tr := New(2, WithBranching(2, 4))
		boxes := randomBoxes(60, seed)
		for i, b := range boxes {
			if err := tr.Insert(b, int64(i)); err != nil {
				return false
			}
		}
		q := rect(float64(qx%100), float64(qy%100), float64(qx%100)+15, float64(qy%100)+15)
		got := collectIDs(func(v func(int64) bool) int { return tr.SearchOverlap(q, v) })
		var want []int64
		for i, b := range boxes {
			if b.Overlaps(q) {
				want = append(want, int64(i))
			}
		}
		return equalIDs(got, want)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func equalIDs(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestFourDimensional(t *testing.T) {
	// The point-transform mode indexes 2k-dim point boxes; make sure k=4
	// works end to end.
	tr := New(4, WithBranching(2, 6))
	rng := rand.New(rand.NewSource(8))
	type rec struct {
		p  []float64
		id int64
	}
	var pts []rec
	for i := 0; i < 200; i++ {
		p := []float64{rng.Float64() * 10, rng.Float64() * 10, rng.Float64() * 10, rng.Float64() * 10}
		pts = append(pts, rec{p, int64(i)})
		if err := tr.Insert(bbox.New(p, p), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	q := bbox.New([]float64{2, 2, 2, 2}, []float64{8, 8, 8, 8})
	got := collectIDs(func(v func(int64) bool) int { return tr.SearchOverlap(q, v) })
	var want []int64
	for _, r := range pts {
		if q.ContainsPoint(r.p) {
			want = append(want, r.id)
		}
	}
	if !equalIDs(got, want) {
		t.Errorf("4-D point search mismatch: %d vs %d", len(got), len(want))
	}
}
