// Package bcf computes the Blake canonical form (BCF) of a Boolean
// function: the disjunction of all its prime implicants.
//
// The paper (§4) uses the BCF as the bridge between semantic and syntactic
// reasoning: Blake's theorem states that for a sum-of-products g and any
// formula f, g ≤ f holds semantically iff g is *syllogistically* below
// BCF(f) — every term of g has a subsuming term in BCF(f). Algorithm 2
// reads the optimal lower and upper bounding-box approximations of f
// directly off BCF(f) (see internal/bbox).
//
// BCF is computed by the classical consensus/absorption method [Blake 1937;
// Brown, Boolean Reasoning]: start from any sum-of-products form, repeatedly
// add the consensus of pairs of terms and delete absorbed terms, until
// fixpoint.
//
// DESIGN.md §2 ("Foundations") places this package in the module map; §1 sketches the compilation pipeline it serves.
package bcf

import (
	"repro/internal/formula"
)

// BCF returns the Blake canonical form of f as an absorbed sum of its prime
// implicants, in deterministic order. It returns formula.ErrTooManyTerms if
// the intermediate sums explode (compile-time guard; the paper notes the
// method is exponential in the number of variables).
func BCF(f *formula.Formula) (formula.SOP, error) {
	sop, err := formula.DNF(f)
	if err != nil {
		return nil, err
	}
	return Close(sop)
}

// Memo caches Blake canonical forms for the life of one compilation. It
// is keyed by structure: a formula's hash (formula.Formula.Hash) finds the
// candidates and Same confirms a hit, so a formula rebuilt node by node —
// the same cofactor reached along another elimination path — hits as well
// as a shared pointer does. (A memo keyed on the formula's text costs more
// to key than it saves.) Each canonical form's own formula is entered as
// well, since its BCF is itself. The zero value is ready. A Memo holds
// every formula it has seen and is not safe for concurrent use: keep one
// per compilation and drop it with the compilation.
type Memo struct {
	index    map[uint32]int32 // hash → 1 + index in entries of the latest entry with that hash
	entries  []memoEntry
	computed int
}

type memoEntry struct {
	f    *formula.Formula
	sop  formula.SOP
	form *formula.Formula // sop.FormulaOf(), built on first request
	err  error
	next int32 // 1 + index of the previous entry with the same hash; 0 ends the chain
}

// BCF is the package's BCF, computed once per distinct formula.
func (m *Memo) BCF(f *formula.Formula) (formula.SOP, error) {
	e := &m.entries[m.lookup(f)]
	return e.sop, e.err
}

// Formula returns BCF(f) as a formula (formula.SOP.FormulaOf): the sum of
// f's prime implicants, the same formula for every f denoting the same
// function.
func (m *Memo) Formula(f *formula.Formula) (*formula.Formula, error) {
	i := m.lookup(f)
	if e := &m.entries[i]; e.err != nil || e.form != nil {
		return e.form, e.err
	}
	form := m.entries[i].sop.FormulaOf()
	m.entries[i].form = form
	if m.find(form) < 0 {
		m.add(memoEntry{f: form, sop: m.entries[i].sop, form: form})
	}
	return form, nil
}

// Computed reports how many canonical forms the memo has computed: its
// distinct formulas, less the canonical forms it entered for free.
func (m *Memo) Computed() int { return m.computed }

// lookup returns f's entry, computing its canonical form on a miss.
func (m *Memo) lookup(f *formula.Formula) int {
	if i := m.find(f); i >= 0 {
		return i
	}
	sop, err := BCF(f)
	m.computed++
	return m.add(memoEntry{f: f, sop: sop, err: err})
}

func (m *Memo) find(f *formula.Formula) int {
	for i := m.index[f.Hash()]; i != 0; i = m.entries[i-1].next {
		if m.entries[i-1].f.Same(f) {
			return int(i - 1)
		}
	}
	return -1
}

func (m *Memo) add(e memoEntry) int {
	if m.index == nil {
		m.index = make(map[uint32]int32)
	}
	h := e.f.Hash()
	e.next = m.index[h]
	m.entries = append(m.entries, e)
	m.index[h] = int32(len(m.entries))
	return len(m.entries) - 1
}

// Close computes the consensus/absorption closure of an arbitrary sum of
// products, yielding the Blake canonical form of the function it denotes.
func Close(sop formula.SOP) (formula.SOP, error) {
	terms := sop.Absorb()
	for {
		var added []formula.Term
		for i := 0; i < len(terms); i++ {
			for j := i + 1; j < len(terms); j++ {
				c, ok := terms[i].Consensus(terms[j])
				if !ok {
					continue
				}
				if subsumedBy(c, terms) || subsumedBy(c, added) {
					continue
				}
				added = append(added, c)
				if len(terms)+len(added) > formula.MaxDNFTerms {
					return nil, formula.ErrTooManyTerms
				}
			}
		}
		if len(added) == 0 {
			return terms, nil
		}
		terms = append(terms, added...)
		terms = terms.Absorb()
	}
}

// subsumedBy reports whether some term of ts subsumes c (making c
// redundant).
func subsumedBy(c formula.Term, ts []formula.Term) bool {
	for _, t := range ts {
		if t.Subsumes(c) {
			return true
		}
	}
	return false
}

// PrimeImplicants returns the prime implicants of f (the terms of its BCF).
func PrimeImplicants(f *formula.Formula) ([]formula.Term, error) {
	return BCF(f)
}

// IsImplicant reports whether the term t implies f (t ≤ f as Boolean
// functions).
func IsImplicant(t formula.Term, f *formula.Formula) bool {
	return formula.Implies2(t.Formula(), f)
}

// IsPrimeImplicant reports whether t is an implicant of f such that no
// proper sub-term (t with one literal removed) is still an implicant.
func IsPrimeImplicant(t formula.Term, f *formula.Formula) bool {
	if t.Contradictory() || !IsImplicant(t, f) {
		return false
	}
	for _, v := range t.Vars() {
		bit := uint64(1) << uint(v)
		weaker := t
		if t.Pos&bit != 0 {
			weaker.Pos &^= bit
		} else {
			weaker.Neg &^= bit
		}
		if IsImplicant(weaker, f) {
			return false
		}
	}
	return true
}

// SyllogisticallyLeq reports whether every term of g has a subsuming term
// in h — the syntactic order "g ≼ h" of Theorem 12. When h is a Blake
// canonical form this coincides with semantic implication g ≤ h
// (Blake's theorem, Thm 13).
func SyllogisticallyLeq(g, h formula.SOP) bool {
	for _, t := range g {
		if !subsumedBy(t, h) {
			return false
		}
	}
	return true
}

// AtomicTerms returns the single-positive-literal terms of the sum — the
// "atoms x with x ≤ f" that Theorem 14 reads off the BCF to build the best
// lower bounding-box approximation.
func AtomicTerms(sop formula.SOP) []int {
	var vars []int
	for _, t := range sop {
		if t.Neg == 0 && popcount1(t.Pos) {
			vars = append(vars, t.Vars()[0])
		}
	}
	return vars
}

func popcount1(x uint64) bool { return x != 0 && x&(x-1) == 0 }
