package formula

import (
	"cmp"
	"slices"
	"testing"
	"testing/quick"
)

func TestTermBasics(t *testing.T) {
	tm := Term{}.WithPos(0).WithNeg(2)
	if tm.IsTrue() {
		t.Errorf("nonempty term is not TrueTerm")
	}
	if tm.Contradictory() {
		t.Errorf("x0 & ~x2 is not contradictory")
	}
	if tm.NumLiterals() != 2 {
		t.Errorf("NumLiterals = %d", tm.NumLiterals())
	}
	if !tm.Uses(0) || !tm.Uses(2) || tm.Uses(1) {
		t.Errorf("Uses wrong")
	}
	bad := tm.WithNeg(0)
	if !bad.Contradictory() {
		t.Errorf("x0 & ~x0 should be contradictory")
	}
	if got := tm.String(); got != "x0 & ~x2" {
		t.Errorf("String = %q", got)
	}
	if TrueTerm.String() != "1" {
		t.Errorf("TrueTerm renders as %q", TrueTerm.String())
	}
	if bad.String() != "0" {
		t.Errorf("contradictory term renders as %q", bad.String())
	}
}

func TestTermConj(t *testing.T) {
	a := Term{}.WithPos(0)
	b := Term{}.WithNeg(1)
	c, ok := a.Conj(b)
	if !ok || !c.Uses(0) || !c.Uses(1) {
		t.Errorf("Conj failed: %v %v", c, ok)
	}
	_, ok = a.Conj(Term{}.WithNeg(0))
	if ok {
		t.Errorf("contradictory conjunction accepted")
	}
}

func TestTermSubsumes(t *testing.T) {
	p := Term{}.WithPos(0)
	pq := Term{}.WithPos(0).WithPos(1)
	if !p.Subsumes(pq) {
		t.Errorf("p should subsume pq")
	}
	if pq.Subsumes(p) {
		t.Errorf("pq should not subsume p")
	}
	if !TrueTerm.Subsumes(p) {
		t.Errorf("1 subsumes everything")
	}
}

func TestTermConsensus(t *testing.T) {
	// consensus(x&p, ~x&q) = p&q
	xp := Term{}.WithPos(0).WithPos(1)
	xq := Term{}.WithNeg(0).WithPos(2)
	c, ok := xp.Consensus(xq)
	if !ok {
		t.Fatalf("consensus should exist")
	}
	want := Term{}.WithPos(1).WithPos(2)
	if c != want {
		t.Errorf("consensus = %v, want %v", c, want)
	}
	// No opposition → no consensus.
	if _, ok := xp.Consensus((Term{}).WithPos(2)); ok {
		t.Errorf("consensus without opposition accepted")
	}
	// Two oppositions → no consensus.
	a := Term{}.WithPos(0).WithPos(1)
	b := Term{}.WithNeg(0).WithNeg(1)
	if _, ok := a.Consensus(b); ok {
		t.Errorf("double opposition should have no consensus")
	}
	// Consensus that would be contradictory.
	p := Term{}.WithPos(0).WithPos(1)
	q := Term{}.WithNeg(0).WithNeg(1)
	if _, ok := p.Consensus(q); ok {
		t.Errorf("contradictory consensus accepted")
	}
}

func TestTermFormulaRoundTrip(t *testing.T) {
	tm := Term{}.WithPos(1).WithNeg(3).WithPos(5)
	f := tm.Formula()
	for assign := uint64(0); assign < 64; assign++ {
		if tm.EvalBits(assign) != EvalBits(f, assign) {
			t.Fatalf("Term/Formula disagree on %#b", assign)
		}
	}
	if got := (Term{}).WithPos(0).WithNeg(0).Formula(); !got.IsConst(false) {
		t.Errorf("contradictory term should convert to 0")
	}
	if got := TrueTerm.Formula(); !got.IsConst(true) {
		t.Errorf("TrueTerm should convert to 1")
	}
}

func TestSOPAbsorb(t *testing.T) {
	p := Term{}.WithPos(0)
	pq := Term{}.WithPos(0).WithPos(1)
	pr := Term{}.WithPos(0).WithNeg(2)
	s := SOP{pq, p, pr}.Absorb()
	if len(s) != 1 || s[0] != p {
		t.Errorf("Absorb = %v, want [p]", s)
	}
	// Duplicates collapse to one.
	d := SOP{p, p}.Absorb()
	if len(d) != 1 {
		t.Errorf("duplicate terms not collapsed: %v", d)
	}
	// Contradictory terms dropped.
	c := SOP{Term{}.WithPos(0).WithNeg(0), p}.Absorb()
	if len(c) != 1 || c[0] != p {
		t.Errorf("contradictory term not dropped: %v", c)
	}
}

func TestDNFBasic(t *testing.T) {
	x, y, z := Var(0), Var(1), Var(2)
	s, err := DNF(And(Or(x, y), z))
	if err != nil {
		t.Fatal(err)
	}
	want := map[Term]bool{
		Term{}.WithPos(0).WithPos(2): true,
		Term{}.WithPos(1).WithPos(2): true,
	}
	if len(s) != 2 || !want[s[0]] || !want[s[1]] {
		t.Errorf("DNF = %v", s)
	}
}

func TestDNFOfConstants(t *testing.T) {
	s, err := DNF(Zero())
	if err != nil || len(s) != 0 {
		t.Errorf("DNF(0) = %v, %v", s, err)
	}
	s, err = DNF(One())
	if err != nil || len(s) != 1 || !s[0].IsTrue() {
		t.Errorf("DNF(1) = %v, %v", s, err)
	}
}

func TestDNFNegationPushdown(t *testing.T) {
	x, y := Var(0), Var(1)
	s, err := DNF(Not(Or(x, And(y, Not(x)))))
	if err != nil {
		t.Fatal(err)
	}
	// ¬(x ∨ (y∧¬x)) = ¬x ∧ (¬y ∨ x) = ¬x∧¬y
	if want := (Term{}).WithNeg(0).WithNeg(1); len(s) != 1 || s[0] != want {
		t.Errorf("DNF = %v", s)
	}
}

// Property: DNF preserves the Boolean function.
func TestQuickDNFPreservesSemantics(t *testing.T) {
	x, y, z, w := Var(0), Var(1), Var(2), Var(3)
	formulas := []*Formula{
		Xor(x, Xor(y, Xor(z, w))),
		Not(Or(And(x, y), And(Not(z), w))),
		And(Or(x, Not(y)), Or(z, Not(w))),
		Implies(And(x, y), Or(z, w)),
	}
	for _, f := range formulas {
		s, err := DNF(f)
		if err != nil {
			t.Fatal(err)
		}
		check := func(assign uint64) bool {
			assign &= 0xf
			return s.EvalBits(assign) == EvalBits(f, assign)
		}
		if err := quick.Check(check, nil); err != nil {
			t.Errorf("DNF changed semantics of %v: %v", f, err)
		}
		if !Equivalent(s.FormulaOf(), f) {
			t.Errorf("FormulaOf(DNF(f)) not equivalent for %v", f)
		}
	}
}

func TestVarsTable(t *testing.T) {
	vs := NewVars()
	a := vs.ID("A")
	b := vs.ID("B")
	if a == b {
		t.Fatalf("distinct names share an index")
	}
	if again := vs.ID("A"); again != a {
		t.Errorf("ID not stable: %d vs %d", again, a)
	}
	if i, ok := vs.Lookup("B"); !ok || i != b {
		t.Errorf("Lookup(B) = %d, %v", i, ok)
	}
	if _, ok := vs.Lookup("missing"); ok {
		t.Errorf("Lookup of missing name succeeded")
	}
	if vs.Name(a) != "A" || vs.Name(99) == "" {
		t.Errorf("Name lookup wrong")
	}
	if vs.Len() != 2 {
		t.Errorf("Len = %d", vs.Len())
	}
	names := vs.Names()
	if len(names) != 2 || names[0] != "A" || names[1] != "B" {
		t.Errorf("Names = %v", names)
	}
}

// absorbPairwise is the absorption the term buffer replaced, kept as the
// reference: keep each consistent term no other term strictly subsumes
// (the first of equal terms), then sort.
func absorbPairwise(s SOP) SOP {
	var out SOP
	for i, t := range s {
		if t.Contradictory() {
			continue
		}
		absorbed := false
		for j, u := range s {
			if i != j && !u.Contradictory() && u.Subsumes(t) && (!t.Subsumes(u) || j < i) {
				absorbed = true
				break
			}
		}
		if !absorbed {
			out = append(out, t)
		}
	}
	slices.SortFunc(out, func(a, b Term) int {
		if c := cmp.Compare(a.Pos, b.Pos); c != 0 {
			return c
		}
		return cmp.Compare(a.Neg, b.Neg)
	})
	return out
}

// dnfPerNode is DNF as it was before the term buffer: a fresh sum per
// node, products and sums absorbed pairwise.
func dnfPerNode(f *Formula, neg bool) SOP {
	switch f.Kind() {
	case KindConst:
		if f.Const() != neg {
			return SOP{TrueTerm}
		}
		return nil
	case KindVar:
		if neg {
			return SOP{Term{}.WithNeg(f.VarIndex())}
		}
		return SOP{Term{}.WithPos(f.VarIndex())}
	case KindNot:
		return dnfPerNode(f.Left(), !neg)
	}
	l, r := dnfPerNode(f.Left(), neg), dnfPerNode(f.Right(), neg)
	if (f.Kind() == KindAnd) == neg {
		return absorbPairwise(append(append(SOP{}, l...), r...))
	}
	var out SOP
	for _, t := range l {
		for _, u := range r {
			if c, ok := t.Conj(u); ok {
				out = append(out, c)
			}
		}
	}
	return absorbPairwise(out)
}

// Absorption by sorted insert and the term buffer's DNF give exactly the
// sums, in exactly the order, the pairwise versions did.
func TestSumBufMatchesPerNodeSums(t *testing.T) {
	state := uint64(7)
	next := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int(state>>33) % n
	}
	var randFormula func(depth int) *Formula
	randFormula = func(depth int) *Formula {
		if depth == 0 || next(4) == 0 {
			switch next(8) {
			case 0:
				return One()
			case 1:
				return Zero()
			}
			return Var(next(6))
		}
		switch next(3) {
		case 0:
			return Not(randFormula(depth - 1))
		case 1:
			return And(randFormula(depth-1), randFormula(depth-1))
		}
		return Or(randFormula(depth-1), randFormula(depth-1))
	}
	for trial := range 2000 {
		var s SOP
		for range next(12) {
			s = append(s, Term{Pos: uint64(next(16)), Neg: uint64(next(16))})
		}
		if got, want := s.Absorb(), absorbPairwise(s); !slices.Equal(got, want) {
			t.Fatalf("trial %d: Absorb(%v) = %v, pairwise %v", trial, s, got, want)
		}
		f := randFormula(5)
		got, err := DNF(f)
		if err != nil {
			t.Fatal(err)
		}
		if want := absorbPairwise(dnfPerNode(f, false)); !slices.Equal(got, want) {
			t.Fatalf("trial %d: DNF(%v) = %v, per-node sums %v", trial, f, got, want)
		}
	}
}
