// Package constraint implements the paper's high-level query language:
// systems of positive and negative Boolean constraints over set-valued
// variables.
//
// A positive constraint has the form f ⊑ g (containment of Boolean
// formulas); a negative constraint has the form f ⋢ g. These suffice to
// express equality, disequality, disjointness, overlap and strict
// containment (§1):
//
//	x = y   ⇔  x ⊑ y ∧ y ⊑ x
//	x ≠ y   ⇔  x ⋢ y ∨ y ⋢ x          (we use the symmetric-difference form)
//	x ⊂ y   ⇔  x ⊑ y ∧ x ≠ y
//
// Theorem 1 (after Boole): every system rewrites to the normal form
//
//	f = 0  ∧  g₁ ≠ 0  ∧ … ∧  gₘ ≠ 0
//
// with f ⊑ g ⇝ f∧¬g contributing to the single equation and f ⋢ g ⇝
// f∧¬g ≠ 0 one disequation. The normal form is the input to Algorithm 1
// (internal/triangular).
//
// DESIGN.md §2 ("Compilation") places this package in the module map; §1 sketches the pipeline stage it implements.
package constraint

import (
	"fmt"
	"strings"

	"repro/internal/boolalg"
	"repro/internal/formula"
)

// Constraint is a single positive (f ⊑ g) or negative (f ⋢ g) constraint.
type Constraint struct {
	Lhs, Rhs *formula.Formula
	Negative bool
}

// String renders the constraint with the paper's operators spelled "<=" and
// "!<=".
func (c Constraint) String() string {
	return c.StringNamed(func(v int) string { return fmt.Sprintf("x%d", v) })
}

// StringNamed renders the constraint using name(v) for variables.
func (c Constraint) StringNamed(name func(int) string) string {
	op := "<="
	if c.Negative {
		op = "!<="
	}
	return fmt.Sprintf("%s %s %s", c.Lhs.StringNamed(name), op, c.Rhs.StringNamed(name))
}

// System is a conjunction of constraints over a shared variable table.
// Variables are declared through Var; the zero System is not usable — call
// NewSystem.
type System struct {
	Vars *formula.Vars
	Cons []Constraint
}

// NewSystem returns an empty system with a fresh variable table.
func NewSystem() *System {
	return &System{Vars: formula.NewVars()}
}

// Var declares (or looks up) a named variable and returns its formula.
func (s *System) Var(name string) *formula.Formula {
	return formula.Var(s.Vars.ID(name))
}

// Subset adds the positive constraint f ⊑ g.
func (s *System) Subset(f, g *formula.Formula) *System {
	s.Cons = append(s.Cons, Constraint{Lhs: f, Rhs: g})
	return s
}

// NotSubset adds the negative constraint f ⋢ g.
func (s *System) NotSubset(f, g *formula.Formula) *System {
	s.Cons = append(s.Cons, Constraint{Lhs: f, Rhs: g, Negative: true})
	return s
}

// Equal adds f = g (two containments).
func (s *System) Equal(f, g *formula.Formula) *System {
	return s.Subset(f, g).Subset(g, f)
}

// NotEqual adds f ≠ g, expressed as the single negative constraint
// (f∧¬g) ∨ (¬f∧g) ⋢ 0 on the symmetric difference.
func (s *System) NotEqual(f, g *formula.Formula) *System {
	return s.NotSubset(formula.Xor(f, g), formula.Zero())
}

// Disjoint adds f ∧ g = 0.
func (s *System) Disjoint(f, g *formula.Formula) *System {
	return s.Subset(formula.And(f, g), formula.Zero())
}

// Overlap adds f ∧ g ≠ 0.
func (s *System) Overlap(f, g *formula.Formula) *System {
	return s.NotSubset(formula.And(f, g), formula.Zero())
}

// NonEmpty adds f ≠ 0.
func (s *System) NonEmpty(f *formula.Formula) *System {
	return s.NotSubset(f, formula.Zero())
}

// StrictSubset adds f ⊂ g (containment plus disequality).
func (s *System) StrictSubset(f, g *formula.Formula) *System {
	return s.Subset(f, g).NotEqual(f, g)
}

// String renders the whole system, one constraint per line.
func (s *System) String() string {
	var b strings.Builder
	for i, c := range s.Cons {
		if i > 0 {
			b.WriteString("\n")
		}
		b.WriteString(c.StringNamed(s.Vars.Name))
	}
	return b.String()
}

// Normal is the Theorem-1 normal form: F = 0 ∧ ⋀ᵢ G[i] ≠ 0.
type Normal struct {
	F *formula.Formula
	G []*formula.Formula
}

// Normalize rewrites the system into normal form. Disequations that are
// two-valued tautologies (g ≡ 1 never vanishes in a nontrivial algebra)
// are dropped; syntactic duplicates are merged.
func (s *System) Normalize() Normal {
	f := formula.Zero()
	var gs []*formula.Formula
	for _, c := range s.Cons {
		body := formula.Diff(c.Lhs, c.Rhs)
		if c.Negative {
			if formula.TautologyOne(body) {
				continue // always ≠ 0 in a nontrivial algebra
			}
			dup := false
			for _, g := range gs {
				if g.Same(body) {
					dup = true
					break
				}
			}
			if !dup {
				gs = append(gs, body)
			}
		} else {
			f = formula.Or(f, body)
		}
	}
	return Normal{F: f, G: gs}
}

// TriviallyUnsat reports a sound (not complete) static unsatisfiability
// check: the equation forces 1 = 0, or some disequation is identically 0.
func (n Normal) TriviallyUnsat() bool {
	if formula.TautologyOne(n.F) {
		return true
	}
	for _, g := range n.G {
		if formula.TautologyZero(g) {
			return true
		}
		// g ≠ 0 together with f = 0 requires g ⋢ f's forced-zero part; the
		// cheap version: if g ≤ F then g must be 0 and nonzero at once.
		if formula.Implies2(g, n.F) {
			return true
		}
	}
	return false
}

// Satisfied evaluates the normal form over an algebra with all variables
// bound.
func (n Normal) Satisfied(alg boolalg.Algebra, env []boolalg.Element) bool {
	if !alg.IsBottom(formula.Eval(n.F, alg, env)) {
		return false
	}
	for _, g := range n.G {
		if alg.IsBottom(formula.Eval(g, alg, env)) {
			return false
		}
	}
	return true
}

// Holds decides the constraint over an algebra with all variables bound,
// lowered to the cheapest test its shape allows — none of which builds
// f ∧ ¬g, so an algebra with fast predicates (boolalg.Leqer/Overlapper)
// never complements anything:
//
//	f ∧ g ⊑ 0  (Disjoint, Overlap)   ⇝  f, g do not / do overlap
//	f ⊑ 0      (NonEmpty, NotEqual)  ⇝  f is / is not empty (Leq against 0)
//	f ⊑ g                            ⇝  containment of the two values
func (c Constraint) Holds(alg boolalg.Algebra, env []boolalg.Element) bool {
	var contained bool
	if c.Rhs.IsConst(false) && c.Lhs.Kind() == formula.KindAnd {
		contained = !boolalg.Overlaps(alg,
			formula.Eval(c.Lhs.Left(), alg, env), formula.Eval(c.Lhs.Right(), alg, env))
	} else {
		contained = boolalg.Leq(alg, formula.Eval(c.Lhs, alg, env), formula.Eval(c.Rhs, alg, env))
	}
	return contained != c.Negative
}

// Satisfied evaluates every constraint of the system over an algebra with
// all variables bound (the exact, unoptimized semantics — the oracle the
// optimized pipeline is validated against, and the executors' final check
// on every tuple).
func (s *System) Satisfied(alg boolalg.Algebra, env []boolalg.Element) bool {
	for _, c := range s.Cons {
		if !c.Holds(alg, env) {
			return false
		}
	}
	return true
}
