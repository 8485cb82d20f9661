// Package triangular implements the paper's central optimization,
// Algorithm 1: transforming a normalized system of Boolean constraints into
// *triangular solved form*
//
//	C₁(x₁)
//	C₂(x₁,x₂)
//	…
//	Cₙ(x₁,…,xₙ)
//
// where each Cᵢ is the strongest necessary condition on a prefix
// x₁,…,xᵢ of the retrieval order, in solved form
//
//	s(x₁,…,xᵢ₋₁) ⊑ xᵢ ⊑ t(x₁,…,xᵢ₋₁)   ∧   ⋀ⱼ (xᵢ∧pⱼ ∨ ¬xᵢ∧qⱼ ≠ 0).
//
// The range constraint comes from Schröder's theorem
// (f = 0 ⇔ f[x↦0] ⊑ x ⊑ ¬f[x↦1], Theorem 9) and the disequations from
// Boole's expansion (Theorem 10). Variables are eliminated from the back of
// the retrieval order with the projection operator Proj, the best
// unquantified approximation to ∃x.S (Theorems 4–8):
//
//	∃x (f = 0 ∧ ⋀ᵢ gᵢ ≠ 0)   ⇝   f₁∧f₀ = 0  ∧  ⋀ᵢ (¬f₁∧gᵢ₁ ∨ ¬f₀∧gᵢ₀) ≠ 0
//
// with h₁ = h[x↦1], h₀ = h[x↦0]. The approximation is exact for a single
// disequation in every Boolean algebra (Theorem 4) and exact for any number
// of disequations in atomless algebras — in particular the measurable
// regions of R^k (Theorems 5–6).
//
// One elimination is one Scratch.Eliminate, yielding a variable's solved
// step and the residual over the rest; Scratch.Solve yields the step
// alone. Compile chains Start, Eliminate per variable and Form. A Scratch
// carries what one compilation's eliminations share: each Blake canonical
// form is computed once (bcf.Memo) and cofactors reuse one table.
//
// Residuals are canonical: the residual after eliminating a set of
// variables is the same value whatever order the set went in, so the
// adaptive planner projects once per set and only solves the steps of
// the other paths into it (DESIGN.md §7). Projection commutes:
// ∃x∃y F = ⋀_ab F_ab over the four cofactors F_ab = F[x↦a, y↦b], and a
// disequation g projected through x and then y is ⋁_ab ¬F_ab ∧ g_ab,
// symmetric in x and y — also when g does not mention one of them and is
// carried past it unchanged, since then g_ab = g_b. Every projected formula is re-normalised to its
// Blake canonical form, which is unique for the function it denotes; and
// Eliminate sorts the residual's disequations by formula.Compare and
// drops duplicates, so neither the order of the list nor a repeated entry
// records the path taken.
//
// DESIGN.md §2 ("Compilation") places this package in the module map; §1 sketches the pipeline stage it implements.
package triangular

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/bcf"
	"repro/internal/boolalg"
	"repro/internal/constraint"
	"repro/internal/formula"
)

// Diseq is one solved disequation  x∧P ∨ ¬x∧Q ≠ 0  on the step's variable.
type Diseq struct {
	P, Q *formula.Formula // over parameters and earlier variables
}

// Step is the solved constraint Cᵢ for one retrieval variable.
type Step struct {
	Var    int              // the variable xᵢ this step retrieves
	Lower  *formula.Formula // s = f[x↦0]:  s ⊑ x
	Upper  *formula.Formula // t = ¬f[x↦1]: x ⊑ t
	Diseqs []Diseq          // disequations mentioning x, in solved form
}

// Form is the triangular solved form of a system.
type Form struct {
	Order  []int             // retrieval order; Steps[i] constrains Order[i]
	Steps  []Step            // Steps[i] mentions only params and Order[:i]
	Ground constraint.Normal // residual constraints over parameters only
	// Unsat is set when projection produced a statically unsatisfiable
	// residual (sound: the original system then has no solutions).
	Unsat bool
}

// Compile runs Algorithm 1 on the normal form n with the given retrieval
// order (variable indices; all other variables are treated as parameters):
// Start, then one Eliminate per retrieval variable from the back of the
// order. Formulas are re-normalized through their Blake canonical form at
// each level to keep growth in check; this preserves the denoted function
// exactly. The error is non-nil only if an intermediate normal form
// explodes past formula.MaxDNFTerms.
func Compile(n constraint.Normal, order []int) (*Form, error) {
	steps := make([]Step, len(order))
	e := Start(n)
	var scr Scratch
	for i := len(order) - 1; i >= 0; i-- {
		var err error
		if steps[i], e, err = scr.Eliminate(e, order[i]); err != nil {
			return nil, err
		}
	}
	return e.Form(append([]int(nil), order...), steps), nil
}

// Elim is Algorithm 1 between two eliminations: the residual system
// F = 0 ∧ ⋀ G ≠ 0 over the variables not yet eliminated, and whether a
// projection has already proved it unsatisfiable. Eliminate never
// modifies it, so one residual can be extended by several variables.
type Elim struct {
	F     *formula.Formula
	G     []*formula.Formula
	Unsat bool
}

// Start begins Algorithm 1 on the normal form n.
func Start(n constraint.Normal) Elim {
	return Elim{F: n.F, G: n.G}
}

// Scratch is what one compilation's eliminations share: a memo of the
// Blake canonical forms they compute, a reusable cofactor table, and the
// slabs every step's disequations and every residual's disequation list
// are cut from. The zero value is ready. A Scratch holds every formula
// its eliminations canonicalised and is not safe for concurrent use: keep
// one per compilation. The Steps and Elims it returns alias its storage
// until Reset; a caller that reuses the scratch copies out what it keeps.
type Scratch struct {
	Memo   bcf.Memo // also serves the compilation's bounding-box templates
	exp    formula.Expander
	diseqs []Diseq            // every step's disequations, back to back
	gs     []*formula.Formula // every residual's disequations, back to back
}

// Reset empties the scratch for the next compilation, keeping its
// storage: every Step and Elim it returned before is overwritten.
//
//boolq:noalloc
func (s *Scratch) Reset() {
	s.Memo.Reset()
	s.exp.Reset()
	clear(s.diseqs)
	s.diseqs = s.diseqs[:0]
	clear(s.gs)
	s.gs = s.gs[:0]
}

// Cap returns how much the scratch retains (memo entries and terms,
// cofactor slots, slab elements), for pools that drop an oversized
// scratch instead of keeping it.
//
//boolq:noalloc
func (s *Scratch) Cap() int {
	return s.Memo.Cap() + s.exp.Cap() + cap(s.diseqs) + cap(s.gs)
}

// Eliminate is one step of Algorithm 1: it solves the residual e for v —
// Schröder's range s ⊑ v ⊑ t and Boole's expansion of every disequation
// mentioning v — and projects v out, returning the solved step and the
// residual over the remaining variables.
func (s *Scratch) Eliminate(e Elim, v int) (Step, Elim, error) {
	step, f1, f0, err := s.solve(e, v)
	if err != nil {
		return Step{}, Elim{}, err
	}
	next := Elim{Unsat: e.Unsat}
	lo := len(s.gs)
	for _, g := range e.G {
		if !g.Uses(v) {
			s.gs = append(s.gs, g)
		}
	}
	notF0 := formula.Not(f0)
	for _, d := range step.Diseqs {
		// Projection of this disequation: ¬f₁∧g₁ ∨ ¬f₀∧g₀ ≠ 0.
		proj, err := s.Memo.Formula(formula.Or(
			formula.And(step.Upper, d.P),
			formula.And(notF0, d.Q),
		))
		if err != nil {
			return Step{}, Elim{}, err
		}
		switch {
		case proj.IsConst(false):
			next.Unsat = true
		case formula.TautologyOne(proj):
			// Trivially nonzero in a nontrivial algebra: drop.
		default:
			s.gs = append(s.gs, proj)
		}
	}
	next.G = canonical(cut(s.gs, lo))
	next.G = next.G[:len(next.G):len(next.G)]
	s.gs = s.gs[:lo+len(next.G)]
	if next.F, err = s.Memo.Formula(formula.And(f1, f0)); err != nil {
		return Step{}, Elim{}, err
	}
	return step, next, nil
}

// Solve is Eliminate without the projection: the solved step alone, at
// the cost of two canonical forms and the cofactors of the disequations
// that mention v. A caller that already holds the residual Eliminate
// would return — residuals are canonical, so any order into the same set
// of eliminated variables gives it — needs only this. Solve fails only
// where the step's own canonical forms explode; it cannot see a
// projection that would explode along this path.
func (s *Scratch) Solve(e Elim, v int) (Step, error) {
	step, _, _, err := s.solve(e, v)
	return step, err
}

// solve returns the step for v with the canonical cofactors f₁ = F[v↦1]
// and f₀ = F[v↦0] it was read from.
func (s *Scratch) solve(e Elim, v int) (step Step, f1, f0 *formula.Formula, err error) {
	f1, f0 = s.exp.Expansion(e.F, v)
	if f1, err = s.Memo.Formula(f1); err != nil {
		return Step{}, nil, nil, err
	}
	if f0, err = s.Memo.Formula(f0); err != nil {
		return Step{}, nil, nil, err
	}
	step = Step{Var: v, Lower: f0, Upper: formula.Not(f1)}
	lo := len(s.diseqs)
	for _, g := range e.G {
		if !g.Uses(v) {
			continue
		}
		g1, g0 := s.exp.Expansion(g, v)
		if slices.ContainsFunc(s.diseqs[lo:], func(d Diseq) bool { return d.P.Same(g1) && d.Q.Same(g0) }) {
			continue // same cofactors: the same solved disequation and projection
		}
		s.diseqs = append(s.diseqs, Diseq{P: g1, Q: g0})
	}
	step.Diseqs = cut(s.diseqs, lo)
	return step, f1, f0, nil
}

// cut returns the slab's elements from lo on, capped so that appending
// to them cannot write into the slab; nil when there are none.
func cut[T any](slab []T, lo int) []T {
	if lo == len(slab) {
		return nil
	}
	return slab[lo:len(slab):len(slab)]
}

// Same reports whether two steps are structurally equal: the same
// variable, bounds and disequations in the same order.
func (st Step) Same(u Step) bool {
	return st.Var == u.Var && st.Lower.Same(u.Lower) && st.Upper.Same(u.Upper) &&
		slices.EqualFunc(st.Diseqs, u.Diseqs, func(a, b Diseq) bool { return a.P.Same(b.P) && a.Q.Same(b.Q) })
}

// Form closes an elimination: once every retrieval variable is eliminated
// (steps[i] solving order[i]), the residual is the ground constraint over
// the parameters. The form takes ownership of order and steps.
func (e Elim) Form(order []int, steps []Step) *Form {
	form := &Form{Order: order, Steps: steps, Ground: constraint.Normal{F: e.F, G: e.G}, Unsat: e.Unsat}
	if form.Ground.TriviallyUnsat() {
		form.Unsat = true
	}
	return form
}

// Proj computes the projection of a normal form on variable v: the best
// unquantified approximation to ∃x_v.n (Definition after Theorem 4).
// Exported for the quantifier-elimination experiments (E2, E7).
func Proj(n constraint.Normal, v int) (constraint.Normal, error) {
	f1, f0 := formula.Expansion(n.F, v)
	f, err := simplify(formula.And(f1, f0))
	if err != nil {
		return constraint.Normal{}, err
	}
	out := constraint.Normal{F: f}
	for _, g := range n.G {
		g1, g0 := formula.Expansion(g, v)
		proj := formula.Or(
			formula.And(formula.Not(f1), g1),
			formula.And(formula.Not(f0), g0),
		)
		proj, err := simplify(proj)
		if err != nil {
			return constraint.Normal{}, err
		}
		if formula.TautologyOne(proj) {
			continue
		}
		out.G = append(out.G, proj)
	}
	out.G = canonical(out.G)
	return out, nil
}

// canonical sorts a residual's disequations into formula.Compare order and
// drops structural duplicates, in place. With every projected disequation
// in Blake canonical form, this makes the residual a function of the set
// of variables eliminated, not of the order they went in.
func canonical(gs []*formula.Formula) []*formula.Formula {
	slices.SortFunc(gs, formula.Compare)
	return slices.CompactFunc(gs, (*formula.Formula).Same)
}

// simplify re-normalizes a formula through its Blake canonical form,
// yielding an absorbed sum of prime implicants. Semantically the identity;
// syntactically it removes the redundancy projection tends to build up.
func simplify(f *formula.Formula) (*formula.Formula, error) {
	s, err := bcf.BCF(f)
	if err != nil {
		return nil, err
	}
	return s.FormulaOf(), nil
}

// StepValues holds the step's formula values evaluated for a fixed prefix
// (parameters and earlier variables). The step's formulas never mention
// the step's own variable, so an executor evaluates them ONCE per prefix
// with ValuesInto and then filters every candidate with SatisfiedWith —
// moving the whole formula evaluation out of the per-candidate loop.
type StepValues struct {
	Lower, Upper boolalg.Element
	P, Q         []boolalg.Element // per-disequation values, same index
}

// ValuesInto evaluates the step's formulas against env — the
// prefix-constant part of the exact filter — reusing v's disequation
// slices, so an executor that keeps one StepValues per step allocates
// nothing per prefix.
func (st Step) ValuesInto(alg boolalg.Algebra, env []boolalg.Element, v *StepValues) {
	v.Lower = formula.Eval(st.Lower, alg, env)
	v.Upper = formula.Eval(st.Upper, alg, env)
	v.P, v.Q = v.P[:0], v.Q[:0]
	for _, d := range st.Diseqs {
		v.P = append(v.P, formula.Eval(d.P, alg, env))
		v.Q = append(v.Q, formula.Eval(d.Q, alg, env))
	}
}

// SatisfiedWith checks the solved constraint against precomputed prefix
// values. The disequation x∧P ∨ ¬x∧Q ≠ 0 holds iff x meets P or Q ⋢ x,
// which needs no complement and lets the algebra's fast-path predicates
// (boolalg.Leqer/Overlapper) answer without materializing any element.
func (st Step) SatisfiedWith(alg boolalg.Algebra, v StepValues, cand boolalg.Element) bool {
	if !boolalg.Leq(alg, v.Lower, cand) {
		return false
	}
	if !boolalg.Leq(alg, cand, v.Upper) {
		return false
	}
	for i := range v.P {
		if !boolalg.Overlaps(alg, cand, v.P[i]) && boolalg.Leq(alg, v.Q[i], cand) {
			return false
		}
	}
	return true
}

// Satisfied checks the solved constraint exactly over an algebra: env must
// bind all parameters and earlier variables, cand is the value proposed
// for the step's variable. This is the executor's precise filter (as
// opposed to the bounding-box filter compiled by internal/bbox); hot loops
// should hoist ValuesInto out of the candidate scan and call SatisfiedWith.
func (st Step) Satisfied(alg boolalg.Algebra, env []boolalg.Element, cand boolalg.Element) bool {
	var v StepValues
	st.ValuesInto(alg, env, &v)
	return st.SatisfiedWith(alg, v, cand)
}

// Vars returns every variable mentioned by the step's formulas (parameters
// and earlier retrieval variables).
func (st Step) Vars() []int {
	seen := map[int]bool{}
	add := func(f *formula.Formula) {
		for _, v := range f.FreeVars() {
			seen[v] = true
		}
	}
	add(st.Lower)
	add(st.Upper)
	for _, d := range st.Diseqs {
		add(d.P)
		add(d.Q)
	}
	var out []int
	for v := 0; v < 64; v++ {
		if seen[v] {
			out = append(out, v)
		}
	}
	return out
}

// String renders the form, one step per line, using name(v) for variables.
func (f *Form) String() string {
	return f.StringNamed(func(v int) string { return fmt.Sprintf("x%d", v) })
}

// StringNamed renders the form with named variables.
func (f *Form) StringNamed(name func(int) string) string {
	var b strings.Builder
	for i, st := range f.Steps {
		if i > 0 {
			b.WriteString("\n")
		}
		fmt.Fprintf(&b, "%s <= %s <= %s",
			st.Lower.StringNamed(name), name(st.Var), st.Upper.StringNamed(name))
		for _, d := range st.Diseqs {
			fmt.Fprintf(&b, " ; %s&%s | ~%s&%s != 0",
				name(st.Var), parenNamed(d.P, name), name(st.Var), parenNamed(d.Q, name))
		}
	}
	if !f.Ground.F.IsConst(false) || len(f.Ground.G) > 0 {
		fmt.Fprintf(&b, "\nground: %s = 0", f.Ground.F.StringNamed(name))
		for _, g := range f.Ground.G {
			fmt.Fprintf(&b, " ; %s != 0", g.StringNamed(name))
		}
	}
	if f.Unsat {
		b.WriteString("\nUNSATISFIABLE")
	}
	return b.String()
}

func parenNamed(f *formula.Formula, name func(int) string) string {
	s := f.StringNamed(name)
	if strings.ContainsAny(s, "&|") {
		return "(" + s + ")"
	}
	return s
}
