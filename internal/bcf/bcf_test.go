package bcf

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/formula"
)

func term(pos, neg uint64) formula.Term { return formula.Term{Pos: pos, Neg: neg} }

// TestE3PaperExample2 reproduces §4 Example 2 of the paper:
//
//	f = ~x&y ∨ x&y ∨ x&z&~w
//	BCF(f) = y ∨ x&z&~w
//
// via consensus (~x&y, x&y → y) and absorption.
func TestE3PaperExample2(t *testing.T) {
	x, y, z, w := formula.Var(0), formula.Var(1), formula.Var(2), formula.Var(3)
	f := formula.OrN(
		formula.And(formula.Not(x), y),
		formula.And(x, y),
		formula.AndN(x, z, formula.Not(w)),
	)
	got, err := BCF(f)
	if err != nil {
		t.Fatal(err)
	}
	want := formula.SOP{
		term(0b0010, 0),      // y
		term(0b0101, 0b1000), // x & z & ~w
	}.Absorb()
	if len(got) != len(want) {
		t.Fatalf("BCF = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("BCF = %v, want %v", got, want)
		}
	}
}

func TestBCFOfConstants(t *testing.T) {
	s, err := BCF(formula.Zero())
	if err != nil || len(s) != 0 {
		t.Errorf("BCF(0) = %v, %v", s, err)
	}
	s, err = BCF(formula.One())
	if err != nil || len(s) != 1 || !s[0].IsTrue() {
		t.Errorf("BCF(1) = %v, %v", s, err)
	}
}

func TestBCFTautology(t *testing.T) {
	x := formula.Var(0)
	s, err := BCF(formula.Or(x, formula.Not(x)))
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 1 || !s[0].IsTrue() {
		t.Errorf("BCF(x|~x) = %v", s)
	}
}

func TestBCFXor(t *testing.T) {
	x, y := formula.Var(0), formula.Var(1)
	s, err := BCF(formula.Xor(x, y))
	if err != nil {
		t.Fatal(err)
	}
	// Both terms are prime; no consensus (double opposition).
	if len(s) != 2 {
		t.Errorf("BCF(x^y) = %v", s)
	}
}

// Classic example where consensus generates a new prime implicant:
// f = x&y ∨ ~x&z has the consensus y&z, all three prime.
func TestBCFGeneratesConsensusTerm(t *testing.T) {
	x, y, z := formula.Var(0), formula.Var(1), formula.Var(2)
	f := formula.Or(formula.And(x, y), formula.And(formula.Not(x), z))
	s, err := BCF(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 3 {
		t.Fatalf("BCF = %v, want 3 prime implicants", s)
	}
	hasYZ := false
	for _, tm := range s {
		if tm == term(0b110, 0) {
			hasYZ = true
		}
	}
	if !hasYZ {
		t.Errorf("missing consensus term y&z in %v", s)
	}
}

func TestBCFPreservesSemantics(t *testing.T) {
	x, y, z, w := formula.Var(0), formula.Var(1), formula.Var(2), formula.Var(3)
	formulas := []*formula.Formula{
		formula.Xor(x, formula.Xor(y, z)),
		formula.OrN(formula.And(x, y), formula.And(y, z), formula.And(z, x)),
		formula.Implies(formula.And(x, y), formula.Or(z, w)),
		formula.Not(formula.Or(formula.And(x, formula.Not(y)), z)),
	}
	for _, f := range formulas {
		s, err := BCF(f)
		if err != nil {
			t.Fatal(err)
		}
		if !formula.Equivalent(s.FormulaOf(), f) {
			t.Errorf("BCF changed semantics of %v: %v", f, s)
		}
	}
}

// A Memo returns what BCF returns, computes each distinct formula once —
// also one rebuilt node by node — and knows a canonical form's own
// formula without computing it.
func TestMemoMatchesBCF(t *testing.T) {
	build := func() []*formula.Formula {
		x, y, z, w := formula.Var(0), formula.Var(1), formula.Var(2), formula.Var(3)
		return []*formula.Formula{
			formula.Xor(x, formula.Xor(y, z)),
			formula.OrN(formula.And(x, y), formula.And(y, z), formula.And(z, x)),
			formula.Implies(formula.And(x, y), formula.Or(z, w)),
			formula.Not(formula.Or(formula.And(x, formula.Not(y)), z)),
			formula.Zero(), formula.One(), x,
		}
	}
	var m Memo
	for round, fs := range [][]*formula.Formula{build(), build()} {
		for _, f := range fs {
			want, err := BCF(f)
			if err != nil {
				t.Fatal(err)
			}
			got, err := m.BCF(f)
			if err != nil || fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("round %d: Memo.BCF(%v) = %v, %v; BCF = %v", round, f, got, err, want)
			}
			form, err := m.Formula(f)
			if err != nil || !form.Same(want.FormulaOf()) {
				t.Fatalf("round %d: Memo.Formula(%v) = %v, %v; want %v", round, f, form, err, want.FormulaOf())
			}
			before := m.Computed()
			if again, _ := m.BCF(form); fmt.Sprint(again) != fmt.Sprint(want) || m.Computed() != before {
				t.Fatalf("round %d: BCF of %v's canonical form = %v after %d new computations", round, f, again, m.Computed()-before)
			}
		}
		if n := len(fs); m.Computed() != n {
			t.Fatalf("round %d: %d canonical forms computed for %d distinct formulas", round, m.Computed(), n)
		}
	}
}

// Property: every term of BCF(f) is a prime implicant of f, and BCF is
// semantically equivalent to f, for random 4-variable functions given by
// their truth table.
func TestQuickBCFTermsArePrime(t *testing.T) {
	check := func(truth uint16) bool {
		f := functionFromTruthTable(truth, 4)
		s, err := BCF(f)
		if err != nil {
			return false
		}
		if !formula.Equivalent(s.FormulaOf(), f) {
			return false
		}
		for _, tm := range s {
			if !IsPrimeImplicant(tm, f) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: BCF contains *all* prime implicants — any implicant of f is
// subsumed by some BCF term (Blake's theorem direction used by Thm 13).
func TestQuickBCFComplete(t *testing.T) {
	check := func(truth uint16, rawPos, rawNeg uint8) bool {
		f := functionFromTruthTable(truth, 4)
		s, err := BCF(f)
		if err != nil {
			return false
		}
		tm := term(uint64(rawPos&0xf), uint64(rawNeg&0xf))
		if tm.Contradictory() || !IsImplicant(tm, f) {
			return true // not an implicant: nothing to check
		}
		return SyllogisticallyLeq(formula.SOP{tm}, s)
	}
	cfg := &quick.Config{MaxCount: 120}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

// functionFromTruthTable builds the minterm expansion of an n-variable
// function whose truth table is the low 2^n bits of truth.
func functionFromTruthTable(truth uint16, n int) *formula.Formula {
	acc := formula.Zero()
	for m := 0; m < 1<<uint(n); m++ {
		if truth&(1<<uint(m)) == 0 {
			continue
		}
		tm := formula.TrueTerm
		for v := 0; v < n; v++ {
			if m&(1<<uint(v)) != 0 {
				tm = tm.WithPos(v)
			} else {
				tm = tm.WithNeg(v)
			}
		}
		acc = formula.Or(acc, tm.Formula())
	}
	return acc
}

func TestSyllogisticallyLeq(t *testing.T) {
	p := term(0b01, 0)
	pq := term(0b11, 0)
	if !SyllogisticallyLeq(formula.SOP{pq}, formula.SOP{p}) {
		t.Errorf("pq ≼ p should hold (p subsumes pq)")
	}
	if SyllogisticallyLeq(formula.SOP{p}, formula.SOP{pq}) {
		t.Errorf("p ≼ pq should not hold")
	}
	if !SyllogisticallyLeq(formula.SOP{}, formula.SOP{p}) {
		t.Errorf("empty sum is below everything")
	}
}

func TestAtomicTerms(t *testing.T) {
	s := formula.SOP{
		term(0b001, 0),   // x0 — atomic
		term(0b110, 0),   // x1&x2 — not atomic
		term(0, 0b1000),  // ~x3 — negative, not an atom
		term(0b10000, 0), // x4 — atomic
	}
	got := AtomicTerms(s)
	if len(got) != 2 || got[0] != 0 || got[1] != 4 {
		t.Errorf("AtomicTerms = %v", got)
	}
}

func TestIsPrimeImplicant(t *testing.T) {
	x, y := formula.Var(0), formula.Var(1)
	f := formula.Or(x, formula.And(x, y)) // ≡ x
	if !IsPrimeImplicant(term(0b01, 0), f) {
		t.Errorf("x should be prime for f ≡ x")
	}
	if IsPrimeImplicant(term(0b11, 0), f) {
		t.Errorf("x&y is an implicant but not prime")
	}
	if IsPrimeImplicant(term(0b10, 0), f) {
		t.Errorf("y is not an implicant")
	}
	if IsPrimeImplicant(term(1, 1), f) {
		t.Errorf("contradictory term can not be prime")
	}
}

func TestCloseOnRawSOP(t *testing.T) {
	// x&y ∨ x&~y closes to x.
	s, err := Close(formula.SOP{term(0b11, 0), term(0b01, 0b10)})
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 1 || s[0] != term(0b01, 0) {
		t.Errorf("Close = %v, want [x]", s)
	}
}
