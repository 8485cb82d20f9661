package region

import (
	"testing"

	"repro/internal/bbox"
	"repro/internal/boolalg"
	"repro/internal/formula"
)

func TestAlgebraImplementsLaws(t *testing.T) {
	alg := NewAlgebra(rect(0, 0, 16, 16))
	sample := []boolalg.Element{
		alg.Bottom(),
		alg.Top(),
		FromBox(rect(0, 0, 8, 8)),
		FromBox(rect(4, 4, 12, 12)),
		FromBoxes(2, rect(0, 0, 2, 16), rect(10, 0, 12, 16)),
		FromBox(rect(7, 7, 9, 9)),
	}
	if err := boolalg.CheckLaws(alg, sample); err != nil {
		t.Fatal(err)
	}
}

func TestAlgebraPanicsOnEmptyUniverse(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty universe should panic")
		}
	}()
	NewAlgebra(rect(1, 1, 1, 1).Meet(rect(2, 2, 3, 3)))
}

func TestAlgebraAccessors(t *testing.T) {
	u := rect(0, 0, 10, 10)
	alg := NewAlgebra(u)
	if alg.K() != 2 || !alg.Universe().Equal(u) {
		t.Errorf("accessors wrong")
	}
	r := FromBox(rect(2, 2, 4, 4))
	if alg.Region(r) != r {
		t.Errorf("Region cast wrong")
	}
	big := FromBox(rect(-5, -5, 5, 5))
	clipped := alg.Region(alg.Clip(big))
	if clipped.Measure() != 25 {
		t.Errorf("Clip measure = %g", clipped.Measure())
	}
}

// Evaluating constraint formulas over the region algebra: the bridge the
// query engine relies on.
func TestFormulaEvalOverRegions(t *testing.T) {
	alg := NewAlgebra(rect(0, 0, 10, 10))
	x, y := formula.Var(0), formula.Var(1)
	rx := FromBox(rect(0, 0, 6, 6))
	ry := FromBox(rect(4, 4, 10, 10))
	env := []boolalg.Element{rx, ry}

	inter := Eval2(t, alg, formula.And(x, y), env)
	if inter.Measure() != 4 {
		t.Errorf("x∧y measure = %g", inter.Measure())
	}
	diff := Eval2(t, alg, formula.Diff(x, y), env)
	if diff.Measure() != 36-4 {
		t.Errorf("x\\y measure = %g", diff.Measure())
	}
	// x ⊑ (x ∨ y) must hold: (x ∧ ¬(x∨y)) = 0.
	leq := formula.Diff(x, formula.Or(x, y))
	if !alg.IsBottom(formula.Eval(leq, alg, env)) {
		t.Errorf("x ⊑ x∨y violated")
	}
}

// Eval2 evaluates and casts, failing the test on panic.
func Eval2(t *testing.T, alg *Algebra, f *formula.Formula, env []boolalg.Element) *Region {
	t.Helper()
	return alg.Region(formula.Eval(f, alg, env))
}

// Atomless behaviour: every nonempty region splits properly, and a family
// of disjoint nonempty subregions of any region can be carved out — the
// property Theorem 5's witness construction needs.
func TestAtomlessWitnessConstruction(t *testing.T) {
	r := FromBox(rect(0, 0, 8, 8))
	parts := make([]*Region, 0, 4)
	rest := r
	for i := 0; i < 4; i++ {
		half := rest.Split()
		parts = append(parts, half)
		rest = rest.Difference(half)
		if rest.IsEmpty() {
			t.Fatalf("ran out of region after %d splits", i+1)
		}
	}
	for i := range parts {
		for j := i + 1; j < len(parts); j++ {
			if parts[i].Overlaps(parts[j]) {
				t.Errorf("parts %d and %d overlap", i, j)
			}
		}
		if !parts[i].Leq(r) {
			t.Errorf("part %d escapes the region", i)
		}
	}
}

// LowerBoxInto: the bounding box within the universe, dropping parts that
// meet it in a null set; a complement gives no box.
func TestLowerBoxInto(t *testing.T) {
	alg := NewAlgebra(rect(0, 0, 10, 10))
	cases := []struct {
		name string
		e    boolalg.Element
		ok   bool
		want bbox.Box
	}{
		{"inside", FromBoxes(2, rect(1, 1, 2, 2), rect(5, 6, 7, 8)), true, rect(1, 1, 7, 8)},
		{"clipped", FromBoxes(2, rect(-5, 2, 3, 4), rect(8, 8, 15, 9)), true, rect(0, 2, 10, 9)},
		{"face contact only", FromBoxes(2, rect(2, 2, 3, 3), rect(10, 0, 12, 10)), true, rect(2, 2, 3, 3)},
		{"outside", FromBox(rect(20, 20, 30, 30)), true, bbox.Empty(2)},
		{"bottom", alg.Bottom(), true, bbox.Empty(2)},
		{"complement", alg.Complement(FromBox(rect(1, 1, 2, 2))), false, rect(4, 4, 5, 5)},
		{"top", alg.Top(), false, rect(4, 4, 5, 5)},
	}
	for _, c := range cases {
		dst := rect(4, 4, 5, 5)
		if ok := alg.LowerBoxInto(c.e, &dst); ok != c.ok || !dst.Equal(c.want) {
			t.Errorf("%s: LowerBoxInto = %v, %v; want %v, %v", c.name, dst, ok, c.want, c.ok)
		}
	}
}
