package bbox

import (
	"math/bits"

	"repro/internal/bcf"
	"repro/internal/formula"
)

// Lower computes L_f, the best lower bounding-box approximation of the
// Boolean function f (Theorem 14 / Algorithm 2 step 2): the ⊔ of ⌈x⌉ over
// every atom x with x ≤ f, i.e. over the single-positive-literal terms of
// BCF(f). L_f satisfies L_f(⌈x₁⌉,…) ⊑ ⌈f(x₁,…)⌉ for all region values, and
// is the greatest box function with that property.
func Lower(f *formula.Formula) (*Func, error) {
	s, err := bcf.BCF(f)
	if err != nil {
		return nil, err
	}
	return LowerFromBCF(s), nil
}

// LowerFromBCF is Lower for a precomputed Blake canonical form.
func LowerFromBCF(s formula.SOP) *Func {
	acc := EmptyFunc()
	for _, t := range s {
		if t.IsTrue() {
			// f ≡ 1: its bounding box is the whole space.
			return UnivFunc()
		}
	}
	for _, v := range bcf.AtomicTerms(s) {
		acc = JoinFunc(acc, VarFunc(v))
	}
	return acc
}

// Upper computes U_f, the best upper bounding-box approximation of f
// (Theorem 15 / Algorithm 2 step 3): drop all negative literals from the
// Blake canonical form, replace ∧ by ⊓ and ∨ by ⊔, and simplify. U_f
// satisfies ⌈f(x₁,…)⌉ ⊑ U_f(⌈x₁⌉,…) for all region values, and is the least
// box function with that property.
func Upper(f *formula.Formula) (*Func, error) {
	s, err := bcf.BCF(f)
	if err != nil {
		return nil, err
	}
	return UpperFromBCF(s), nil
}

// UpperFromBCF is Upper for a precomputed Blake canonical form.
func UpperFromBCF(s formula.SOP) *Func {
	// Drop negative literals per term; a term with only negative literals
	// (or the empty term) upper-approximates to the universe.
	for _, t := range s {
		if t.Pos == 0 {
			return UnivFunc()
		}
	}
	acc := EmptyFunc()
	for i, t := range s {
		if absorbedPos(s, i) {
			continue
		}
		term := UnivFunc()
		for m := t.Pos; m != 0; m &= m - 1 {
			term = MeetFunc(term, VarFunc(bits.TrailingZeros64(m)))
		}
		acc = JoinFunc(acc, term)
	}
	return acc
}

// absorbedPos reports whether term i's positive literals, as a meet of
// boxes, add nothing to the join of the other terms': some other term's
// positive literals are a subset of them (a meet of more boxes is
// smaller), the earlier of two equal sets being kept.
func absorbedPos(s formula.SOP, i int) bool {
	t := s[i].Pos
	for j, u := range s {
		if j != i && u.Pos&^t == 0 && (u.Pos != t || j < i) {
			return true
		}
	}
	return false
}

// Approx bundles the two approximations of one Boolean function.
type Approx struct {
	L, U *Func
}

// Approximate computes both L_f and U_f sharing one BCF computation.
func Approximate(f *formula.Formula) (Approx, error) {
	s, err := bcf.BCF(f)
	if err != nil {
		return Approx{}, err
	}
	return Approx{L: LowerFromBCF(s), U: UpperFromBCF(s)}, nil
}
