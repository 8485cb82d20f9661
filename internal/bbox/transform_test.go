package bbox

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func spec2(lower, upper Box, overlaps ...Box) RangeSpec {
	return RangeSpec{K: 2, Lower: lower, Upper: upper, Overlaps: overlaps}
}

func TestRangeSpecMatches(t *testing.T) {
	s := spec2(Rect(4, 4, 5, 5), Rect(0, 0, 10, 10), Rect(8, 0, 12, 2))
	good := Rect(3, 0, 9, 6) // contains lower, inside upper, overlaps witness
	if !s.Matches(good) {
		t.Errorf("good box rejected")
	}
	if s.Matches(Rect(4, 4, 6, 6)) {
		t.Errorf("box missing the overlap witness accepted")
	}
	if s.Matches(Rect(3, 0, 11, 6)) {
		t.Errorf("box outside upper accepted")
	}
	if s.Matches(Rect(4.5, 4.5, 9, 6)) {
		t.Errorf("box not containing lower accepted")
	}
}

func TestAllSpecMatchesEverything(t *testing.T) {
	s := AllSpec(2)
	for _, b := range []Box{Rect(0, 0, 1, 1), Rect(-100, -100, 100, 100), Univ(2)} {
		if !s.Matches(b) {
			t.Errorf("AllSpec rejected %v", b)
		}
	}
	if s.Unsatisfiable() {
		t.Errorf("AllSpec unsatisfiable")
	}
}

func TestRangeSpecUnsatisfiable(t *testing.T) {
	// Lower outside upper.
	s := spec2(Rect(20, 20, 21, 21), Rect(0, 0, 10, 10))
	if !s.Unsatisfiable() {
		t.Errorf("lower⋢upper not detected")
	}
	// Empty overlap witness.
	s = spec2(Empty(2), Univ(2), Empty(2))
	if !s.Unsatisfiable() {
		t.Errorf("empty overlap witness not detected")
	}
	// Overlap witness outside upper bound.
	s = spec2(Empty(2), Rect(0, 0, 1, 1), Rect(5, 5, 6, 6))
	if !s.Unsatisfiable() {
		t.Errorf("unreachable overlap witness not detected")
	}
	// Satisfiable case.
	s = spec2(Rect(1, 1, 2, 2), Rect(0, 0, 10, 10), Rect(0, 0, 3, 3))
	if s.Unsatisfiable() {
		t.Errorf("satisfiable spec reported unsatisfiable")
	}
}

func TestPointTransform(t *testing.T) {
	b := Rect(1, 2, 3, 4)
	p := PointTransform(b)
	want := []float64{1, 2, 3, 4}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("PointTransform = %v", p)
		}
	}
}

// TestE5Figure3 verifies the Figure 3 reduction: a box matches the
// RangeSpec iff its 2k-dim point lies in the compiled PointQuery box.
func TestE5Figure3(t *testing.T) {
	s := spec2(Rect(4, 4, 5, 5), Rect(0, 0, 10, 10), Rect(8, 0, 12, 2))
	q, ok := s.PointQuery()
	if !ok {
		t.Fatalf("PointQuery unsatisfiable for a satisfiable spec")
	}
	if q.K != 4 {
		t.Fatalf("PointQuery dimension = %d", q.K)
	}
	boxes := []Box{
		Rect(3, 0, 9, 6),
		Rect(4, 4, 6, 6),
		Rect(3, 0, 11, 6),
		Rect(4.5, 4.5, 9, 6),
		Rect(0, 0, 10, 10),
		Rect(4, 0, 8, 5),
		Rect(2, 1, 8.5, 5.5),
	}
	for _, b := range boxes {
		want := s.Matches(b)
		got := q.ContainsPoint(PointTransform(b))
		if got != want {
			t.Errorf("box %v: point-in-query %v, direct match %v", b, got, want)
		}
	}
}

// Property version of Figure 3 over random boxes and specs.
func TestQuickFigure3Equivalence(t *testing.T) {
	clamp := func(v float64) float64 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0
		}
		return math.Mod(v, 50)
	}
	mk := func(a, b, c, d float64) Box {
		a, b, c, d = clamp(a), clamp(b), clamp(c), clamp(d)
		return Rect(math.Min(a, b), math.Min(c, d), math.Max(a, b), math.Max(c, d))
	}
	check := func(v [16]float64) bool {
		lower := mk(v[0], v[1], v[2], v[3])
		upper := mk(v[4], v[5], v[6], v[7]).Join(lower) // ensure lower ⊑ upper
		witness := mk(v[8], v[9], v[10], v[11])
		x := mk(v[12], v[13], v[14], v[15])
		s := spec2(lower, upper, witness)
		q, ok := s.PointQuery()
		if !ok {
			// Statically unsatisfiable: the direct check must agree.
			return !s.Matches(x)
		}
		return q.ContainsPoint(PointTransform(x)) == s.Matches(x)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPointQueryWithNoConstraints(t *testing.T) {
	q, ok := AllSpec(2).PointQuery()
	if !ok {
		t.Fatalf("AllSpec point query unsatisfiable")
	}
	if !q.ContainsPoint(PointTransform(Rect(-5, -5, 5, 5))) {
		t.Errorf("unconstrained query rejects a box")
	}
}

func TestPointQueryEmptyUpper(t *testing.T) {
	s := RangeSpec{K: 2, Lower: Empty(2), Upper: Empty(2)}
	if _, ok := s.PointQuery(); ok {
		t.Errorf("empty upper bound should have no point query")
	}
}

// The flat form of a spec decides exactly what the spec decides, and its
// pruning test is sound: a box that admits nothing contains no match.
// Flatten reports !ok exactly for an empty upper bound or an
// unsatisfiable spec; PointQueryTo and MeetTo agree with their allocating
// forms.
func TestFlatSpecMatchesRangeSpec(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	var buf [FlatRunsHint]float64
	for trial := 0; trial < 3000; trial++ {
		k := 1 + r.Intn(3)
		s := RangeSpec{K: k, Lower: randProgBox(r, k), Upper: randProgBox(r, k)}
		if r.Intn(3) == 0 {
			s.Lower = Empty(k)
		}
		for i := r.Intn(4); i > 0; i-- {
			s.Overlaps = append(s.Overlaps, randProgBox(r, k))
		}
		f, ok := s.Flatten(buf[:0])
		if want := !s.Upper.IsEmpty() && !s.Unsatisfiable(); ok != want {
			t.Fatalf("Flatten(%+v) ok = %v, want %v", s, ok, want)
		}
		x, outer := randProgBox(r, k), randProgBox(r, k)
		if x.IsEmpty() || outer.IsEmpty() {
			continue
		}
		if ok && f.Matches(x.Lo, x.Hi) != s.Matches(x) {
			t.Fatalf("spec %+v, box %v: flat %v, RangeSpec %v", s, x, f.Matches(x.Lo, x.Hi), s.Matches(x))
		}
		if ok && outer.Contains(x) && s.Matches(x) && !f.Admits(outer.Lo, outer.Hi) {
			t.Fatalf("spec %+v: %v prunes its match %v", s, outer, x)
		}
		q, qok := s.PointQuery()
		q2, qok2 := s.PointQueryTo(make([]float64, 0, 1), nil)
		if qok != qok2 || !q.Equal(q2) {
			t.Fatalf("PointQueryTo(%+v) = %v, %v; PointQuery %v, %v", s, q2, qok2, q, qok)
		}
		if m := x.MeetTo(outer, nil, nil); !m.Equal(x.Meet(outer)) {
			t.Fatalf("MeetTo(%v, %v) = %v, Meet %v", x, outer, m, x.Meet(outer))
		}
	}
}
