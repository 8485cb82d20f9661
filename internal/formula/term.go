package formula

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"
)

// Term is a conjunction of literals over variables 0..63, encoded as two
// bitmasks: Pos holds the positive literals, Neg the complemented ones. The
// empty term (Pos = Neg = 0) denotes the constant 1. Terms are the currency
// of sum-of-products forms, the consensus method (internal/bcf) and the
// bounding-box approximations (internal/bbox).
type Term struct {
	Pos, Neg uint64
}

// TrueTerm is the empty conjunction, denoting 1.
var TrueTerm = Term{}

// ErrTooManyTerms is returned when a DNF expansion exceeds MaxDNFTerms.
var ErrTooManyTerms = errors.New("formula: DNF expansion too large")

// MaxDNFTerms bounds intermediate sum-of-products sizes. The paper notes
// the normal-form computations are exponential in the number of variables
// but run at compile time on small systems; this bound turns pathological
// inputs into errors instead of memory exhaustion.
const MaxDNFTerms = 1 << 17

// IsTrue reports whether t is the empty (constant-1) term.
func (t Term) IsTrue() bool { return t.Pos == 0 && t.Neg == 0 }

// Contradictory reports whether t contains x ∧ ¬x.
func (t Term) Contradictory() bool { return t.Pos&t.Neg != 0 }

// NumLiterals returns the number of literals in t.
func (t Term) NumLiterals() int { return popcount(t.Pos) + popcount(t.Neg) }

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// WithPos returns t extended with the positive literal v.
func (t Term) WithPos(v int) Term {
	t.Pos |= uint64(1) << uint(v)
	return t
}

// WithNeg returns t extended with the negative literal ¬v.
func (t Term) WithNeg(v int) Term {
	t.Neg |= uint64(1) << uint(v)
	return t
}

// Conj returns the conjunction t ∧ u and whether it is non-contradictory.
func (t Term) Conj(u Term) (Term, bool) {
	r := Term{Pos: t.Pos | u.Pos, Neg: t.Neg | u.Neg}
	return r, !r.Contradictory()
}

// Subsumes reports whether t's literals are a subset of u's, i.e. t ≥ u as
// Boolean functions (t absorbs u in a sum: t ∨ u = t). The paper calls the
// induced order on sums "syllogistic".
func (t Term) Subsumes(u Term) bool {
	return t.Pos&^u.Pos == 0 && t.Neg&^u.Neg == 0
}

// Uses reports whether variable v occurs (in either polarity) in t.
func (t Term) Uses(v int) bool {
	bit := uint64(1) << uint(v)
	return (t.Pos|t.Neg)&bit != 0
}

// Consensus returns the consensus of t and u, if it exists: when exactly
// one variable x occurs positively in one term and negatively in the other,
// the consensus is (t ∪ u) \ {x, ¬x}. Together with absorption this rewrite
// computes the Blake canonical form (§4, Algorithm 2 prerequisites).
func (t Term) Consensus(u Term) (Term, bool) {
	opp := (t.Pos & u.Neg) | (t.Neg & u.Pos)
	if opp == 0 || opp&(opp-1) != 0 {
		return Term{}, false // zero or more than one opposition
	}
	r := Term{
		Pos: (t.Pos | u.Pos) &^ opp,
		Neg: (t.Neg | u.Neg) &^ opp,
	}
	if r.Contradictory() {
		return Term{}, false
	}
	return r, true
}

// EvalBits evaluates the term on a two-valued assignment (bit v = value of
// variable v).
func (t Term) EvalBits(assign uint64) bool {
	return t.Pos&^assign == 0 && t.Neg&assign == 0
}

// Formula converts the term back to formula syntax.
func (t Term) Formula() *Formula {
	if t.Contradictory() {
		return Zero()
	}
	acc := One()
	for v := 0; v < 64; v++ {
		bit := uint64(1) << uint(v)
		if t.Pos&bit != 0 {
			acc = And(acc, Var(v))
		}
		if t.Neg&bit != 0 {
			acc = And(acc, Not(Var(v)))
		}
	}
	return acc
}

// Vars returns the sorted variable indices appearing in t.
func (t Term) Vars() []int {
	var out []int
	all := t.Pos | t.Neg
	for v := 0; v < 64; v++ {
		if all&(uint64(1)<<uint(v)) != 0 {
			out = append(out, v)
		}
	}
	return out
}

// String renders the term, e.g. "x0 & ~x2"; the empty term renders as "1".
func (t Term) String() string {
	return t.StringNamed(func(v int) string { return fmt.Sprintf("x%d", v) })
}

// StringNamed renders the term using name(v) for variables.
func (t Term) StringNamed(name func(int) string) string {
	if t.IsTrue() {
		return "1"
	}
	if t.Contradictory() {
		return "0"
	}
	var parts []string
	for _, v := range t.Vars() {
		bit := uint64(1) << uint(v)
		if t.Pos&bit != 0 {
			parts = append(parts, name(v))
		}
		if t.Neg&bit != 0 {
			parts = append(parts, "~"+name(v))
		}
	}
	return strings.Join(parts, " & ")
}

// SOP is a sum of products: a disjunction of terms. The empty SOP denotes 0.
type SOP []Term

// FormulaOf converts the SOP back to formula syntax.
func (s SOP) FormulaOf() *Formula {
	acc := Zero()
	for _, t := range s {
		acc = Or(acc, t.Formula())
	}
	return acc
}

// EvalBits evaluates the SOP on a two-valued assignment.
func (s SOP) EvalBits(assign uint64) bool {
	for _, t := range s {
		if t.EvalBits(assign) {
			return true
		}
	}
	return false
}

// Absorb removes every term subsumed by another term of the sum
// (p ∨ p∧q = p) and returns the reduced sum in deterministic order.
func (s SOP) Absorb() SOP {
	out := make(SOP, 0, len(s))
	for i, t := range s {
		if t.Contradictory() {
			continue
		}
		absorbed := false
		for j, u := range s {
			if i == j || u.Contradictory() {
				continue
			}
			if u.Subsumes(t) && (!t.Subsumes(u) || j < i) {
				// u strictly more general, or equal with smaller index:
				// t is redundant.
				absorbed = true
				break
			}
		}
		if !absorbed {
			out = append(out, t)
		}
	}
	sortTerms(out)
	return out
}

// sortTerms orders terms by (Pos, Neg). Equal keys are identical terms,
// so the unstable sort still yields one deterministic order.
func sortTerms(ts []Term) {
	slices.SortFunc(ts, func(a, b Term) int {
		if c := cmp.Compare(a.Pos, b.Pos); c != 0 {
			return c
		}
		return cmp.Compare(a.Neg, b.Neg)
	})
}

// DNF converts f to an absorbed sum-of-products form (not necessarily
// canonical; see bcf.BCF for the Blake canonical form). It returns
// ErrTooManyTerms if an intermediate sum exceeds MaxDNFTerms.
func DNF(f *Formula) (SOP, error) {
	s, err := dnf(f, false)
	if err != nil {
		return nil, err
	}
	return s.Absorb(), nil
}

// dnf computes the SOP of f (negated if neg is set), pushing complements
// inward De Morgan-style.
func dnf(f *Formula, neg bool) (SOP, error) {
	switch f.kind {
	case KindConst:
		if f.val != neg {
			return SOP{TrueTerm}, nil
		}
		return SOP{}, nil
	case KindVar:
		if neg {
			return SOP{Term{}.WithNeg(int(f.v))}, nil
		}
		return SOP{Term{}.WithPos(int(f.v))}, nil
	case KindNot:
		return dnf(f.l, !neg)
	case KindAnd, KindOr:
		isAnd := (f.kind == KindAnd) != neg // De Morgan under negation
		l, err := dnf(f.l, neg)
		if err != nil {
			return nil, err
		}
		r, err := dnf(f.r, neg)
		if err != nil {
			return nil, err
		}
		if isAnd {
			return distribute(l, r)
		}
		u := append(append(SOP{}, l...), r...)
		if len(u) > MaxDNFTerms {
			return nil, ErrTooManyTerms
		}
		return u.Absorb(), nil
	}
	return nil, fmt.Errorf("formula: unknown node kind %d", f.kind)
}

// distribute computes the product of two sums.
func distribute(l, r SOP) (SOP, error) {
	out := make(SOP, 0, len(l))
	for _, t := range l {
		for _, u := range r {
			if c, ok := t.Conj(u); ok {
				out = append(out, c)
				if len(out) > MaxDNFTerms {
					return nil, ErrTooManyTerms
				}
			}
		}
	}
	return out.Absorb(), nil
}
