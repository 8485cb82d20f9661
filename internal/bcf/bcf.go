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
	var b formula.SumBuf
	var spare []formula.Term
	lo, err := canonical(&b, f, &spare)
	if err != nil {
		return nil, err
	}
	return append(formula.SOP{}, b.Sum(lo, b.Len())...), nil
}

// canonical builds BCF(f) at the end of b — its DNF, then the consensus
// closure — and returns where it starts. On an error b is as it was.
func canonical(b *formula.SumBuf, f *formula.Formula, spare *[]formula.Term) (int, error) {
	lo, err := b.DNF(f)
	if err == nil {
		err = closeIn(b, lo, spare)
	}
	if err != nil {
		b.Truncate(lo)
	}
	return lo, err
}

// Memo caches Blake canonical forms for the life of one compilation. It
// is keyed by structure: a formula's hash (formula.Formula.Hash) finds the
// candidates and Same confirms a hit, so a formula rebuilt node by node —
// the same cofactor reached along another elimination path — hits as well
// as a shared pointer does. (A memo keyed on the formula's text costs more
// to key than it saves.) Each canonical form's own formula is entered as
// well, since its BCF is itself. The index is open-addressed on that
// hash, and every canonical form is built in, and kept in, one term
// buffer. The zero value is ready. A Memo holds every formula it has seen
// and is not safe for concurrent use: keep one per compilation, and Reset
// it before the next one reuses its storage.
type Memo struct {
	index    []int32 // 1 + index in entries, 0 empty; len is zero or a power of two
	entries  []memoEntry
	terms    formula.SumBuf // every entry's canonical form, back to back
	spare    []formula.Term // one round's consensus terms (closeIn)
	computed int
}

type memoEntry struct {
	f      *formula.Formula
	lo, hi int32            // the canonical form: terms [lo, hi)
	form   *formula.Formula // its formula (SOP.FormulaOf), built on first request
	err    error
}

// BCF is the package's BCF, computed once per distinct formula. The sum
// aliases the memo's term buffer: it must not be modified, and it is
// valid until Reset.
func (m *Memo) BCF(f *formula.Formula) (formula.SOP, error) {
	e := &m.entries[m.lookup(f)]
	return m.terms.Sum(int(e.lo), int(e.hi)), e.err
}

// Formula returns BCF(f) as a formula (formula.SOP.FormulaOf): the sum of
// f's prime implicants, the same formula for every f denoting the same
// function.
func (m *Memo) Formula(f *formula.Formula) (*formula.Formula, error) {
	i := m.lookup(f)
	e := m.entries[i]
	if e.err != nil || e.form != nil {
		return e.form, e.err
	}
	form := m.terms.Sum(int(e.lo), int(e.hi)).FormulaOf()
	m.entries[i].form = form
	if m.find(form) < 0 {
		m.add(memoEntry{f: form, lo: e.lo, hi: e.hi, form: form})
	}
	return form, nil
}

// Computed reports how many canonical forms the memo has computed: its
// distinct formulas, less the canonical forms it entered for free.
func (m *Memo) Computed() int { return m.computed }

// Reset forgets every formula and canonical form, keeping the storage
// for the next compilation. Sums BCF returned before are overwritten.
//
//boolq:noalloc
func (m *Memo) Reset() {
	clear(m.index)
	clear(m.entries)
	m.entries = m.entries[:0]
	m.terms.Truncate(0)
	m.computed = 0
}

// Cap returns how many entries and terms the memo retains, for pools that
// drop an oversized memo instead of keeping it.
//
//boolq:noalloc
func (m *Memo) Cap() int { return len(m.index) + cap(m.entries) + m.terms.Cap() + cap(m.spare) }

// lookup returns f's entry, computing its canonical form on a miss.
func (m *Memo) lookup(f *formula.Formula) int {
	if i := m.find(f); i >= 0 {
		return i
	}
	lo, err := canonical(&m.terms, f, &m.spare)
	m.computed++
	return m.add(memoEntry{f: f, lo: int32(lo), hi: int32(m.terms.Len()), err: err})
}

// find returns f's entry, or -1.
//
//boolq:noalloc
func (m *Memo) find(f *formula.Formula) int {
	mask := uint32(len(m.index) - 1)
	for i := f.Hash() & mask; len(m.index) > 0; i = (i + 1) & mask {
		e := m.index[i]
		if e == 0 {
			return -1
		}
		if m.entries[e-1].f.Same(f) {
			return int(e - 1)
		}
	}
	return -1
}

// add appends e, which find does not hold, and indexes it, doubling the
// index past half full.
func (m *Memo) add(e memoEntry) int {
	m.entries = append(m.entries, e)
	if 2*len(m.entries) > len(m.index) {
		m.index = make([]int32, max(64, 2*len(m.index)))
		for i := range m.entries {
			m.slot(i)
		}
	} else {
		m.slot(len(m.entries) - 1)
	}
	return len(m.entries) - 1
}

// slot puts entry i in the index's first free slot from its hash on.
//
//boolq:noalloc
func (m *Memo) slot(i int) {
	mask := uint32(len(m.index) - 1)
	j := m.entries[i].f.Hash() & mask
	for m.index[j] != 0 {
		j = (j + 1) & mask
	}
	m.index[j] = int32(i + 1)
}

// Close computes the consensus/absorption closure of an arbitrary sum of
// products, yielding the Blake canonical form of the function it denotes.
func Close(sop formula.SOP) (formula.SOP, error) {
	var b formula.SumBuf
	var spare []formula.Term
	for _, t := range sop {
		b.Insert(0, t)
	}
	if err := closeIn(&b, 0, &spare); err != nil {
		return nil, err
	}
	return append(formula.SOP{}, b.Sum(0, b.Len())...), nil
}

// closeIn closes the absorbed sum that ends b, starting at lo, in place:
// each round adds the consensus of every pair of its terms that no term
// subsumes, collected in spare and then inserted into the sum, until a
// round adds nothing. The rounds, and so the MaxDNFTerms bound, are the
// ones a closure rebuilding its sum per round meets.
//
//boolq:noalloc
func closeIn(b *formula.SumBuf, lo int, spare *[]formula.Term) error {
	for {
		terms := b.Sum(lo, b.Len())
		added := (*spare)[:0]
		for i := 0; i < len(terms); i++ {
			for j := i + 1; j < len(terms); j++ {
				c, ok := terms[i].Consensus(terms[j])
				if !ok {
					continue
				}
				if subsumedBy(c, terms) || subsumedBy(c, added) {
					continue
				}
				added = append(added, c) //boolq:allowalloc grow-once: a warm spare already holds a round's terms
				if len(terms)+len(added) > formula.MaxDNFTerms {
					*spare = added
					return formula.ErrTooManyTerms
				}
			}
		}
		*spare = added
		if len(added) == 0 {
			return nil
		}
		for _, c := range added {
			b.Insert(lo, c)
		}
	}
}

// subsumedBy reports whether some term of ts subsumes c (making c
// redundant).
//
//boolq:noalloc
func subsumedBy(c formula.Term, ts []formula.Term) bool {
	for _, t := range ts {
		if t.Subsumes(c) {
			return true
		}
	}
	return false
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
