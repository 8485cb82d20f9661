package region

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/bbox"
)

func rect(x0, y0, x1, y1 float64) bbox.Box { return bbox.Rect(x0, y0, x1, y1) }

func TestFromBoxAndBasics(t *testing.T) {
	r := FromBox(rect(0, 0, 2, 3))
	if r.IsEmpty() || r.K() != 2 {
		t.Fatalf("FromBox wrong: %v", r)
	}
	if r.Measure() != 6 {
		t.Errorf("Measure = %g", r.Measure())
	}
	if !r.BoundingBox().Equal(rect(0, 0, 2, 3)) {
		t.Errorf("BoundingBox = %v", r.BoundingBox())
	}
	if r.NumBoxes() != 1 {
		t.Errorf("NumBoxes = %d", r.NumBoxes())
	}
	// Degenerate boxes are null sets → empty region.
	if !FromBox(rect(1, 1, 1, 5)).IsEmpty() {
		t.Errorf("degenerate box should produce empty region")
	}
	if !FromBox(bbox.Empty(2)).IsEmpty() {
		t.Errorf("empty box should produce empty region")
	}
	if Empty(2).String() != "∅" {
		t.Errorf("empty String = %q", Empty(2).String())
	}
}

func TestUnionDisjointAndOverlapping(t *testing.T) {
	a := FromBox(rect(0, 0, 2, 2))
	b := FromBox(rect(4, 4, 6, 6))
	u := a.Union(b)
	if u.Measure() != 8 {
		t.Errorf("disjoint union measure = %g", u.Measure())
	}
	c := FromBox(rect(1, 1, 3, 3)) // overlaps a by 1
	v := a.Union(c)
	if v.Measure() != 4+4-1 {
		t.Errorf("overlapping union measure = %g", v.Measure())
	}
	// Union with self is identity.
	if !a.Union(a).Equal(a) {
		t.Errorf("a ∪ a ≠ a")
	}
	// Union with empty.
	if !a.Union(Empty(2)).Equal(a) || !Empty(2).Union(a).Equal(a) {
		t.Errorf("union with empty wrong")
	}
}

func TestIntersect(t *testing.T) {
	a := FromBox(rect(0, 0, 4, 4))
	b := FromBox(rect(2, 2, 6, 6))
	i := a.Intersect(b)
	if i.Measure() != 4 {
		t.Errorf("intersect measure = %g", i.Measure())
	}
	// Edge-touching boxes have null intersection.
	c := FromBox(rect(4, 0, 8, 4))
	if !a.Intersect(c).IsEmpty() {
		t.Errorf("edge-touching intersection should be null")
	}
	if !a.Overlaps(b) || a.Overlaps(c) {
		t.Errorf("Overlaps wrong")
	}
}

func TestDifference(t *testing.T) {
	a := FromBox(rect(0, 0, 4, 4))
	b := FromBox(rect(1, 1, 3, 3))
	d := a.Difference(b)
	if d.Measure() != 16-4 {
		t.Errorf("difference measure = %g", d.Measure())
	}
	if !a.Difference(a).IsEmpty() {
		t.Errorf("a \\ a nonempty")
	}
	if !Empty(2).Difference(a).IsEmpty() {
		t.Errorf("∅ \\ a nonempty")
	}
	if !a.Difference(Empty(2)).Equal(a) {
		t.Errorf("a \\ ∅ ≠ a")
	}
	// Subtract completely covering region.
	big := FromBox(rect(-1, -1, 5, 5))
	if !a.Difference(big).IsEmpty() {
		t.Errorf("a \\ big nonempty")
	}
}

func TestComplementIn(t *testing.T) {
	u := rect(0, 0, 10, 10)
	a := FromBox(rect(2, 2, 4, 4))
	c := a.ComplementIn(u)
	if c.Measure() != 100-4 {
		t.Errorf("complement measure = %g", c.Measure())
	}
	// Double complement is identity (up to null sets).
	if !c.ComplementIn(u).Equal(a) {
		t.Errorf("double complement ≠ identity")
	}
}

func TestEqualLeq(t *testing.T) {
	// Same region, different decompositions.
	a := FromBoxes(2, rect(0, 0, 2, 1), rect(0, 1, 2, 2))
	b := FromBox(rect(0, 0, 2, 2))
	if !a.Equal(b) {
		t.Errorf("tiled region ≠ whole box")
	}
	if !a.Leq(b) || !b.Leq(a) {
		t.Errorf("Leq wrong on equal regions")
	}
	c := FromBox(rect(0, 0, 1, 1))
	if !c.Leq(b) || b.Leq(c) {
		t.Errorf("strict Leq wrong")
	}
}

func TestCompactMergesTiles(t *testing.T) {
	a := FromBoxes(2, rect(0, 0, 1, 2), rect(1, 0, 2, 2))
	if a.NumBoxes() != 1 {
		t.Errorf("adjacent tiles not merged: %v", a)
	}
}

func TestSplit(t *testing.T) {
	a := FromBox(rect(0, 0, 4, 2))
	h := a.Split()
	if h.IsEmpty() || !h.Leq(a) || h.Equal(a) {
		t.Errorf("Split is not a proper nonempty subregion: %v", h)
	}
	if h.Measure() != a.Measure()/2 {
		t.Errorf("Split measure = %g", h.Measure())
	}
	defer func() {
		if recover() == nil {
			t.Errorf("Split of empty should panic")
		}
	}()
	Empty(2).Split()
}

func TestContainsPoint(t *testing.T) {
	a := FromBoxes(2, rect(0, 0, 1, 1), rect(5, 5, 6, 6))
	if !a.ContainsPoint([]float64{0.5, 0.5}) || !a.ContainsPoint([]float64{5.5, 5.5}) {
		t.Errorf("ContainsPoint misses region points")
	}
	if a.ContainsPoint([]float64{3, 3}) {
		t.Errorf("ContainsPoint accepts outside point")
	}
}

func TestDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("dimension mismatch should panic")
		}
	}()
	Empty(2).Union(Empty(3))
}

func TestSubtractBoxShapes(t *testing.T) {
	// Punching a hole in the middle yields 4 slabs in 2-D.
	a := rect(0, 0, 3, 3)
	b := rect(1, 1, 2, 2)
	parts := subtractBox(a, b)
	total := 0.0
	for _, p := range parts {
		total += p.Volume()
		if !positiveVolume(p) {
			t.Errorf("degenerate part %v", p)
		}
		if p.Overlaps(b) && positiveVolume(p.Meet(b)) {
			t.Errorf("part %v overlaps subtrahend interior", p)
		}
	}
	if total != 9-1 {
		t.Errorf("subtract total = %g", total)
	}
}

func TestThreeDimensionalRegions(t *testing.T) {
	u := bbox.New([]float64{0, 0, 0}, []float64{10, 10, 10})
	a := FromBox(bbox.New([]float64{0, 0, 0}, []float64{5, 5, 5}))
	c := a.ComplementIn(u)
	if got := a.Measure() + c.Measure(); got != 1000 {
		t.Errorf("3-D complement measures = %g", got)
	}
	if !a.Intersect(c).IsEmpty() {
		t.Errorf("region overlaps its complement")
	}
}

// randRegion builds a small random region from the bits of seed.
func randRegion(seed uint64) *Region {
	r := Empty(2)
	for i := 0; i < 3; i++ {
		bits := seed >> uint(i*16)
		x := float64(bits & 0xf)
		y := float64((bits >> 4) & 0xf)
		w := float64((bits>>8)&0x7) + 1
		h := float64((bits>>11)&0x7) + 1
		r = r.Union(FromBox(rect(x, y, x+w, y+h)))
	}
	return r
}

// Property: measure is additive — |a| + |b| = |a∪b| + |a∩b|.
func TestQuickMeasureAdditivity(t *testing.T) {
	check := func(s1, s2 uint64) bool {
		a, b := randRegion(s1), randRegion(s2)
		lhs := a.Measure() + b.Measure()
		rhs := a.Union(b).Measure() + a.Intersect(b).Measure()
		return math.Abs(lhs-rhs) < 1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: De Morgan in the region algebra.
func TestQuickRegionDeMorgan(t *testing.T) {
	u := rect(0, 0, 32, 32)
	check := func(s1, s2 uint64) bool {
		a, b := randRegion(s1), randRegion(s2)
		lhs := a.Intersect(b).ComplementIn(u)
		rhs := a.ComplementIn(u).Union(b.ComplementIn(u))
		return lhs.Equal(rhs)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: difference is intersection with complement.
func TestQuickDifferenceViaComplement(t *testing.T) {
	u := rect(0, 0, 32, 32)
	check := func(s1, s2 uint64) bool {
		a, b := randRegion(s1), randRegion(s2)
		return a.Difference(b).Equal(a.Intersect(b.ComplementIn(u)))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: the decomposition invariant survives the sort-based compact —
// boxes stay pairwise interior-disjoint with positive volume, and the
// fast Leq/Overlaps agree with their measure-theoretic definitions.
func TestQuickInvariantsAndFastPredicates(t *testing.T) {
	u := rect(0, 0, 12, 12)
	alg := NewAlgebra(u)
	// spill reaches outside u. Within the algebra that excess is a null
	// set: spill ⊑ u, and the Leq/Overlaps fast paths must agree with the
	// generic x ∧ ¬y = 0 on it as on the random regions (which spill too).
	spill := FromBox(rect(9, 9, 14, 14))
	if !alg.Leq(spill, FromBox(u)) || !spill.LeqIn(u, FromBox(u)) {
		t.Fatal("a region spilling outside the universe is not contained in it")
	}
	check := func(s1, s2 uint64) bool {
		a, b := randRegion(s1), randRegion(s2)
		for _, x := range []*Region{a, spill} {
			if alg.Leq(x, b) != alg.IsBottom(alg.Meet(x, alg.Complement(b))) ||
				alg.Overlaps(x, b) != !alg.IsBottom(alg.Meet(x, b)) {
				return false
			}
		}
		for _, r := range []*Region{a.Union(b), a.Difference(b), a.Intersect(b)} {
			for i, bi := range r.boxes {
				if !positiveVolume(bi) {
					return false
				}
				for _, bj := range r.boxes[i+1:] {
					if interiorOverlaps(bi, bj) {
						return false
					}
				}
			}
		}
		if a.Leq(b) != a.Difference(b).IsEmpty() {
			return false
		}
		// LeqIn is containment clipped to a universe: (a\b) ∩ u = (a∩u)\b.
		if a.LeqIn(u, b) != a.Intersect(FromBox(u)).Leq(b) {
			return false
		}
		return a.Overlaps(b) == !a.Intersect(b).IsEmpty()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestDifferenceDisjointReturnsReceiver pins the allocation fast path: a
// subtrahend that misses the region entirely must hand back the receiver.
func TestDifferenceDisjointReturnsReceiver(t *testing.T) {
	a := FromBoxes(2, rect(0, 0, 2, 2), rect(4, 4, 6, 6))
	far := FromBox(rect(20, 20, 30, 30))
	if got := a.Difference(far); got != a {
		t.Errorf("Difference with disjoint subtrahend rebuilt the region")
	}
	if got := a.Difference(Empty(2)); got != a {
		t.Errorf("Difference with empty subtrahend rebuilt the region")
	}
}

// Property: ⌈a∪b⌉ = ⌈a⌉ ⊔ ⌈b⌉ and ⌈a∩b⌉ ⊑ ⌈a⌉ ⊓ ⌈b⌉ (Lemma 5).
func TestQuickBoundingBoxHomomorphism(t *testing.T) {
	check := func(s1, s2 uint64) bool {
		a, b := randRegion(s1), randRegion(s2)
		if !a.Union(b).BoundingBox().Equal(a.BoundingBox().Join(b.BoundingBox())) {
			return false
		}
		return a.BoundingBox().Meet(b.BoundingBox()).Contains(a.Intersect(b).BoundingBox())
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
