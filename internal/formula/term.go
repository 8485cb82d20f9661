package formula

import (
	"errors"
	"fmt"
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
//
//boolq:noalloc
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
//
//boolq:noalloc
func (t Term) Conj(u Term) (Term, bool) {
	t.Pos |= u.Pos
	t.Neg |= u.Neg
	return t, !t.Contradictory()
}

// Subsumes reports whether t's literals are a subset of u's, i.e. t ≥ u as
// Boolean functions (t absorbs u in a sum: t ∨ u = t). The paper calls the
// induced order on sums "syllogistic".
//
//boolq:noalloc
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
//
//boolq:noalloc
func (t Term) Consensus(u Term) (Term, bool) {
	opp := (t.Pos & u.Neg) | (t.Neg & u.Pos)
	if opp == 0 || opp&(opp-1) != 0 {
		return TrueTerm, false // zero or more than one opposition
	}
	t.Pos = (t.Pos | u.Pos) &^ opp
	t.Neg = (t.Neg | u.Neg) &^ opp
	if t.Contradictory() {
		return TrueTerm, false
	}
	return t, true
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
	b := SumBuf{terms: make([]Term, 0, len(s))}
	for _, t := range s {
		b.Insert(0, t)
	}
	return SOP(b.terms)
}

// termLess orders terms by (Pos, Neg): the order every absorbed sum is
// kept in. Equal keys are identical terms.
//
//boolq:noalloc
func termLess(a, b Term) bool {
	return a.Pos < b.Pos || (a.Pos == b.Pos && a.Neg < b.Neg)
}

// SumBuf builds sums of products in one reusable slice. Sums sit back to
// back: a caller keeps the ones it needs by their start and end, builds
// the next one above them, and drops everything above a mark with
// Truncate. Every sum the buffer builds is absorbed and sorted by
// (Pos, Neg), which is SOP.Absorb's result, and is grown by sorted
// insert (Insert) rather than by building a fresh sum and absorbing it.
// The zero value is ready; a SumBuf is not safe for concurrent use.
type SumBuf struct {
	terms []Term
}

// Len returns the end of the buffer's last sum.
//
//boolq:noalloc
func (b *SumBuf) Len() int { return len(b.terms) }

// Cap returns how many terms the buffer retains, for pools that drop an
// oversized buffer instead of keeping it.
//
//boolq:noalloc
func (b *SumBuf) Cap() int { return cap(b.terms) }

// Sum returns the terms in [lo, hi). The sum aliases the buffer: it is
// valid until the buffer is truncated below hi, and must not be modified.
//
//boolq:noalloc
func (b *SumBuf) Sum(lo, hi int) SOP { return b.terms[lo:hi:hi] }

// Truncate drops every term at or above n.
//
//boolq:noalloc
func (b *SumBuf) Truncate(n int) { b.terms = b.terms[:n] }

// Insert adds t to the absorbed sum that ends the buffer, starting at lo,
// keeping it absorbed and sorted: nothing changes when a term of the sum
// subsumes t (or t is contradictory); otherwise the terms t subsumes are
// dropped and t takes its place in (Pos, Neg) order.
//
//boolq:noalloc
func (b *SumBuf) Insert(lo int, t Term) {
	n := b.insert(lo, len(b.terms), t) // may grow b.terms: slice it after
	b.terms = b.terms[:n]
}

// insert is Insert into the sum at [lo, hi), which need not end the
// buffer: it returns the sum's new end, which is at most hi+1, and
// writes nothing above it. Reading the next term to insert from hi
// before the call is therefore safe.
//
//boolq:noalloc
func (b *SumBuf) insert(lo, hi int, t Term) int {
	if t.Contradictory() {
		return hi
	}
	ts := b.terms
	w, at := lo, -1
	for i := lo; i < hi; i++ {
		u := ts[i]
		if u.Subsumes(t) {
			// Nothing was dropped before: an absorbed sum cannot hold
			// both a term below t and a term t subsumes.
			return hi
		}
		if t.Subsumes(u) {
			continue
		}
		if at < 0 && termLess(t, u) {
			at = w
		}
		ts[w] = u
		w++
	}
	if at < 0 {
		at = w
	}
	if w == len(ts) {
		b.terms = append(b.terms, Term{}) //boolq:allowalloc grow-once: a warm buffer already holds the slot
		ts = b.terms
	}
	copy(ts[at+1:w+1], ts[at:w])
	ts[at] = t
	return w + 1
}

// DNF converts f to an absorbed sum-of-products form (not necessarily
// canonical; see bcf.BCF for the Blake canonical form). It returns
// ErrTooManyTerms if an intermediate sum exceeds MaxDNFTerms.
func DNF(f *Formula) (SOP, error) {
	var b SumBuf
	lo, err := b.DNF(f)
	if err != nil {
		return nil, err
	}
	if b.terms == nil {
		return SOP{}, nil
	}
	return b.Sum(lo, b.Len()), nil
}

// DNF is the package's DNF built at the end of the buffer: the sum is
// b.Sum(lo, b.Len()). On an error the buffer is as it was.
//
//boolq:noalloc
func (b *SumBuf) DNF(f *Formula) (lo int, err error) {
	lo = len(b.terms)
	if err = b.dnf(f, false); err != nil {
		b.terms = b.terms[:lo]
	}
	return lo, err
}

// dnf appends the absorbed sum of f (negated if neg is set) to the
// buffer, pushing complements inward De Morgan-style. A product is built
// above its operands by sorted insert and moved down over them; a sum
// inserts the right operand's terms into the left one in place. The
// bounds are the ones a sum built fresh per node would meet: a product
// fails past MaxDNFTerms consistent term pairs, counted before any is
// inserted, a sum when its operands together exceed MaxDNFTerms.
//
//boolq:noalloc
func (b *SumBuf) dnf(f *Formula, neg bool) error {
	switch f.kind {
	case KindConst:
		if f.val != neg {
			b.terms = append(b.terms, TrueTerm) //boolq:allowalloc grow-once: a warm buffer already holds the slot
		}
		return nil
	case KindVar:
		var t Term
		if neg {
			t.Neg = 1 << f.v
		} else {
			t.Pos = 1 << f.v
		}
		b.terms = append(b.terms, t) //boolq:allowalloc grow-once: a warm buffer already holds the slot
		return nil
	case KindNot:
		return b.dnf(f.l, !neg)
	case KindAnd, KindOr:
	default:
		return errUnknownKind
	}
	s0 := len(b.terms)
	if err := b.dnf(f.l, neg); err != nil {
		return err
	}
	s1 := len(b.terms)
	if err := b.dnf(f.r, neg); err != nil {
		return err
	}
	s2 := len(b.terms)
	if (f.kind == KindAnd) == neg { // a sum, De Morgan under negation
		if s2-s0 > MaxDNFTerms {
			return ErrTooManyTerms
		}
		hi := s1
		for k := s1; k < s2; k++ {
			hi = b.insert(s0, hi, b.terms[k])
		}
		b.terms = b.terms[:hi]
		return nil
	}
	if (s1-s0)*(s2-s1) > MaxDNFTerms && b.consistentPairs(s0, s1, s2) > MaxDNFTerms {
		return ErrTooManyTerms // before inserting a single one of them
	}
	hi := s2
	for i := s0; i < s1; i++ {
		for k := s1; k < s2; k++ {
			if c, ok := b.terms[i].Conj(b.terms[k]); ok {
				hi = b.insert(s2, hi, c)
			}
		}
	}
	b.terms = append(b.terms[:s0], b.terms[s2:hi]...) //boolq:allowalloc moves the product down over its operands: no growth
	return nil
}

// consistentPairs counts the pairs of a term in [s0, s1) and a term in
// [s1, s2) whose conjunction is not contradictory: the size of their
// product before absorption.
//
//boolq:noalloc
func (b *SumBuf) consistentPairs(s0, s1, s2 int) int {
	n := 0
	for _, t := range b.terms[s0:s1] {
		for _, u := range b.terms[s1:s2] {
			if _, ok := t.Conj(u); ok {
				n++
			}
		}
	}
	return n
}

// errUnknownKind reports a formula node no constructor builds.
var errUnknownKind = errors.New("formula: unknown node kind")
