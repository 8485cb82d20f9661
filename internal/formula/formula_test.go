package formula

import (
	"fmt"
	"strings"
	"testing"
)

func TestConstructorsFold(t *testing.T) {
	x, y := Var(0), Var(1)
	cases := []struct {
		name string
		got  *Formula
		want *Formula
	}{
		{"and-zero-l", And(Zero(), x), Zero()},
		{"and-zero-r", And(x, Zero()), Zero()},
		{"and-one-l", And(One(), x), x},
		{"and-one-r", And(x, One()), x},
		{"and-idem", And(x, x), x},
		{"and-compl", And(x, Not(x)), Zero()},
		{"and-compl-rev", And(Not(x), x), Zero()},
		{"or-one-l", Or(One(), x), One()},
		{"or-one-r", Or(x, One()), One()},
		{"or-zero-l", Or(Zero(), x), x},
		{"or-zero-r", Or(x, Zero()), x},
		{"or-idem", Or(x, x), x},
		{"or-compl", Or(x, Not(x)), One()},
		{"not-zero", Not(Zero()), One()},
		{"not-one", Not(One()), Zero()},
		{"not-not", Not(Not(And(x, y))), And(x, y)},
	}
	for _, c := range cases {
		if !c.got.Same(c.want) {
			t.Errorf("%s: got %v, want %v", c.name, c.got, c.want)
		}
	}
}

func TestVarPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Var(-1) should panic")
		}
	}()
	Var(-1)
}

// A formula records its variables in one 64-bit mask.
func TestVarPanicsPastMaxVars(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("Var(%d) should panic", MaxVars)
		}
	}()
	Var(MaxVars)
}

// The hash and the variable set are computed by the constructors, so a
// formula rebuilt node by node carries the same ones, and Same may reject
// on either without walking.
func TestHashFollowsStructure(t *testing.T) {
	build := func() []*Formula {
		x, y, z := Var(0), Var(1), Var(63)
		return []*Formula{
			Zero(), One(), x, y, Not(x), Not(z),
			And(x, y), And(y, x), Or(x, y), Or(y, x),
			And(x, Not(y)), Or(And(x, y), z), And(Or(x, y), z), Xor(x, z),
		}
	}
	a, b := build(), build()
	for i := range a {
		if a[i].Hash() != b[i].Hash() || !a[i].Same(b[i]) {
			t.Errorf("%v rebuilt: hash %08x vs %08x, Same %v", a[i], a[i].Hash(), b[i].Hash(), a[i].Same(b[i]))
		}
		for j := range a {
			if j != i && a[i].Same(b[j]) {
				t.Errorf("%v Same as %v", a[i], b[j])
			}
		}
		var vars []int
		for v := range MaxVars {
			if a[i].Uses(v) {
				vars = append(vars, v)
			}
		}
		if fmt.Sprint(vars) != fmt.Sprint(a[i].FreeVars()) && len(vars)+len(a[i].FreeVars()) > 0 {
			t.Errorf("%v: Uses reports %v, FreeVars %v", a[i], vars, a[i].FreeVars())
		}
	}
}

// An Expander's cofactors are the package's, call after call on one
// table, and a subtree without the variable comes back unchanged.
func TestExpanderMatchesExpansion(t *testing.T) {
	x, y, z, w := Var(0), Var(1), Var(2), Var(3)
	shared := Or(And(x, y), Not(z))
	formulas := []*Formula{
		Or(And(x, y), z),
		Xor(x, Xor(y, z)),
		And(shared, Or(shared, And(w, Not(x)))),
		And(Implies(x, y), Implies(y, Or(z, w))),
		w,
	}
	var ex Expander
	for round := range 3 {
		for _, f := range formulas {
			for v := range 4 {
				pos, neg := ex.Expansion(f, v)
				if !pos.Same(Cofactor(f, v, true)) || !neg.Same(Cofactor(f, v, false)) {
					t.Fatalf("round %d: Expander.Expansion(%v, x%d) = %v, %v", round, f, v, pos, neg)
				}
				if !Equivalent(f, Or(And(Var(v), pos), And(Not(Var(v)), neg))) {
					t.Fatalf("Boole expansion of %v on x%d failed", f, v)
				}
			}
		}
	}
	if pos, neg := ex.Expansion(shared, 3); pos != shared || neg != shared {
		t.Errorf("cofactors of a formula without the variable were rebuilt")
	}
}

func TestSame(t *testing.T) {
	x, y := Var(0), Var(1)
	f := And(x, Or(y, Not(x)))
	g := And(Var(0), Or(Var(1), Not(Var(0))))
	if !f.Same(g) {
		t.Errorf("structurally equal formulas compare unequal")
	}
	if f.Same(And(x, y)) {
		t.Errorf("distinct formulas compare equal")
	}
	if f.Same(nil) {
		t.Errorf("non-nil Same(nil) should be false")
	}
}

func TestFreeVarsAndUses(t *testing.T) {
	f := Or(And(Var(3), Not(Var(1))), Var(5))
	got := f.FreeVars()
	want := []int{1, 3, 5}
	if len(got) != len(want) {
		t.Fatalf("FreeVars = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("FreeVars = %v, want %v", got, want)
		}
	}
	if !f.Uses(3) || !f.Uses(1) || !f.Uses(5) {
		t.Errorf("Uses should report free variables")
	}
	if f.Uses(0) || f.Uses(2) {
		t.Errorf("Uses reports absent variables")
	}
	if One().Uses(0) {
		t.Errorf("constant uses no variable")
	}
}

func TestStringRendering(t *testing.T) {
	x, y, z := Var(0), Var(1), Var(2)
	f := Or(And(x, Not(y)), z)
	s := f.String()
	if s != "x0 & ~x1 | x2" {
		t.Errorf("String() = %q", s)
	}
	g := And(Or(x, y), z)
	if got := g.String(); got != "(x0 | x1) & x2" {
		t.Errorf("String() = %q", got)
	}
	if got := Not(And(x, y)).String(); got != "~(x0 & x1)" {
		t.Errorf("String() = %q", got)
	}
	if Zero().String() != "0" || One().String() != "1" {
		t.Errorf("constant rendering wrong")
	}
}

func TestStringNamed(t *testing.T) {
	vs := NewVars()
	a, b := vs.ID("A"), vs.ID("B")
	f := And(Var(a), Not(Var(b)))
	got := f.StringNamed(vs.Name)
	if got != "A & ~B" {
		t.Errorf("StringNamed = %q", got)
	}
}

func TestSize(t *testing.T) {
	x := Var(0)
	f := And(x, Or(x, Var(1)))
	// nodes: x, x1, Or, And — x shared
	if n := f.Size(); n != 4 {
		t.Errorf("Size = %d, want 4", n)
	}
}

func TestCofactor(t *testing.T) {
	x, y := Var(0), Var(1)
	f := Or(And(x, y), And(Not(x), Not(y)))
	if got := Cofactor(f, 0, true); !got.Same(y) {
		t.Errorf("f[x↦1] = %v, want y", got)
	}
	if got := Cofactor(f, 0, false); !got.Same(Not(y)) {
		t.Errorf("f[x↦0] = %v, want ~y", got)
	}
}

func TestExpansionIsBoole(t *testing.T) {
	// f ≡ (x ∧ f1) ∨ (¬x ∧ f0) for a handful of formulas.
	x, y, z := Var(0), Var(1), Var(2)
	formulas := []*Formula{
		Or(And(x, y), z),
		Xor(x, Xor(y, z)),
		Not(Or(x, And(y, Not(z)))),
		And(Implies(x, y), Implies(y, z)),
	}
	for _, f := range formulas {
		pos, neg := Expansion(f, 0)
		expanded := Or(And(x, pos), And(Not(x), neg))
		if !Equivalent(f, expanded) {
			t.Errorf("Boole expansion failed for %v", f)
		}
		if pos.Uses(0) || neg.Uses(0) {
			t.Errorf("cofactors still mention the expanded variable")
		}
	}
}

func TestSubstitute(t *testing.T) {
	x, y, z := Var(0), Var(1), Var(2)
	f := Or(x, And(y, x))
	g := Substitute(f, 0, And(y, z))
	want := Or(And(y, z), And(y, And(y, z)))
	if !Equivalent(g, want) {
		t.Errorf("Substitute = %v", g)
	}
	if g.Uses(0) {
		t.Errorf("substituted variable still present")
	}
}

func TestSubstituteAll(t *testing.T) {
	x, y, z := Var(0), Var(1), Var(2)
	f := Or(And(x, y), z)
	got := SubstituteAll(f, []*Formula{z, nil, Not(x)})
	// x ↦ z, z ↦ ¬x, y untouched; simultaneous, so the substituted z is not
	// re-substituted.
	want := Or(And(z, y), Not(x))
	if !got.Same(want) {
		t.Errorf("SubstituteAll = %v, want %v", got, want)
	}
}

func TestDerivedOps(t *testing.T) {
	x, y := Var(0), Var(1)
	if !Equivalent(Diff(x, y), And(x, Not(y))) {
		t.Errorf("Diff wrong")
	}
	if !Equivalent(Xor(x, y), Or(And(x, Not(y)), And(Not(x), y))) {
		t.Errorf("Xor wrong")
	}
	if !Equivalent(Implies(x, y), Or(Not(x), y)) {
		t.Errorf("Implies wrong")
	}
	if !Equivalent(AndN(x, y, One()), And(x, y)) {
		t.Errorf("AndN wrong")
	}
	if !Equivalent(OrN(), Zero()) || !Equivalent(AndN(), One()) {
		t.Errorf("empty folds wrong")
	}
}

func TestRenderParenthesization(t *testing.T) {
	x, y, z := Var(0), Var(1), Var(2)
	f := Not(Or(x, y))
	if got := f.String(); !strings.Contains(got, "(") {
		t.Errorf("negated disjunction must parenthesize: %q", got)
	}
	g := And(x, And(y, z))
	if got := g.String(); strings.Contains(got, "(") {
		t.Errorf("nested conjunction needs no parens: %q", got)
	}
}

// Compare is a total order that agrees with Same: antisymmetric,
// transitive, and 0 exactly on structurally equal formulas — including
// equal formulas built from distinct nodes.
func TestCompareTotalOrderAgreesWithSame(t *testing.T) {
	x, y, z := Var(0), Var(1), Var(2)
	fs := []*Formula{
		Zero(), One(), x, y, z, Var(1), Not(x), Not(y),
		And(x, y), And(y, x), And(x, Var(1)), Or(x, y), Or(x, Not(y)),
		And(Or(x, y), z), And(Or(x, Var(1)), Var(2)), Or(And(x, y), Not(z)),
		Not(And(x, y)), Not(Or(x, y)),
	}
	for _, f := range fs {
		for _, g := range fs {
			c, d := Compare(f, g), Compare(g, f)
			if (c == 0) != f.Same(g) {
				t.Errorf("Compare(%v, %v) = %d, Same = %v", f, g, c, f.Same(g))
			}
			if c != -d && !(c == 0 && d == 0) {
				t.Errorf("Compare not antisymmetric on %v, %v: %d vs %d", f, g, c, d)
			}
			for _, h := range fs {
				if c <= 0 && Compare(g, h) <= 0 && Compare(f, h) > 0 {
					t.Errorf("Compare not transitive: %v <= %v <= %v but %v > %v", f, g, h, f, h)
				}
			}
		}
	}
	a, b := Or(And(x, y), Not(z)), Or(And(x, Var(1)), Not(Var(2)))
	if n := testing.AllocsPerRun(100, func() { Compare(a, b) }); n != 0 {
		t.Errorf("Compare allocates %v times", n)
	}
}
