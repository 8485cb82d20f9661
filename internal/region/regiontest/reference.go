// Package regiontest holds the reference model of the region algebra that
// tests compare the serving implementation against. Nothing outside
// _test.go files imports it.
package regiontest

import (
	"repro/internal/bbox"
	"repro/internal/boolalg"
	"repro/internal/constraint"
	"repro/internal/formula"
	"repro/internal/region"
	"repro/internal/workload"
)

// Reference is the region algebra in its most literal form: every element
// is a materialised *region.Region clipped to the universe, ¬x is the
// universe minus x, and nothing has a fast path — Leq and Overlaps fall
// back to boolalg's generic IsBottom(x ∧ ¬y) and ¬IsBottom(x ∧ y). It
// defines what region.Algebra's signed elements and universe-relative
// kernels must agree with.
type Reference struct {
	universe *region.Region
	box      bbox.Box
}

// NewReference returns the reference algebra over the universe box.
func NewReference(universe bbox.Box) *Reference {
	return &Reference{universe: region.FromBox(universe), box: universe}
}

// Env clips every bound region of env to the universe, making it an
// environment of this algebra.
func (a *Reference) Env(env []boolalg.Element) []boolalg.Element {
	out := make([]boolalg.Element, len(env))
	for i, e := range env {
		if e != nil {
			out[i] = e.(*region.Region).Intersect(a.universe)
		}
	}
	return out
}

// Bottom implements boolalg.Algebra.
func (a *Reference) Bottom() boolalg.Element { return region.Empty(a.box.K) }

// Top implements boolalg.Algebra.
func (a *Reference) Top() boolalg.Element { return a.universe }

// Meet implements boolalg.Algebra.
func (a *Reference) Meet(x, y boolalg.Element) boolalg.Element {
	return x.(*region.Region).Intersect(y.(*region.Region))
}

// Join implements boolalg.Algebra.
func (a *Reference) Join(x, y boolalg.Element) boolalg.Element {
	return x.(*region.Region).Union(y.(*region.Region))
}

// Complement implements boolalg.Algebra.
func (a *Reference) Complement(x boolalg.Element) boolalg.Element {
	return x.(*region.Region).ComplementIn(a.box)
}

// IsBottom implements boolalg.Algebra.
func (a *Reference) IsBottom(x boolalg.Element) bool { return x.(*region.Region).IsEmpty() }

// Equal implements boolalg.Algebra.
func (a *Reference) Equal(x, y boolalg.Element) bool {
	return x.(*region.Region).Equal(y.(*region.Region))
}

// Holds decides f ⊑ g the way the engine did before constraints were
// lowered to containment and overlap tests: build f ∧ ¬g, evaluate it,
// test it for emptiness.
func (a *Reference) Holds(f, g *formula.Formula, env []boolalg.Element) bool {
	return a.IsBottom(formula.Eval(formula.Diff(f, g), a, a.Env(env)))
}

// Satisfied is constraint.System.Satisfied as it was before lowering,
// over this algebra.
func (a *Reference) Satisfied(sys *constraint.System, env []boolalg.Element) bool {
	for _, c := range sys.Cons {
		if a.Holds(c.Lhs, c.Rhs, env) == c.Negative {
			return false
		}
	}
	return true
}

// GridUniverse is the universe GridRegion's draws are meant for.
var GridUniverse = bbox.Rect(3, 3, 9, 9)

// GridRegion draws a region of 0–3 boxes with integer corners in [0,12]:
// boxes routinely share edges and corners (null-set contact), and against
// GridUniverse they fall inside it, straddle its border, cover it or miss
// it entirely.
func GridRegion(rng *workload.RNG) *region.Region {
	var boxes []bbox.Box
	for n := rng.IntN(4); n > 0; n-- {
		x0, y0 := rng.IntN(12), rng.IntN(12)
		x1, y1 := x0+1+rng.IntN(12-x0), y0+1+rng.IntN(12-y0)
		boxes = append(boxes, bbox.Rect(float64(x0), float64(y0), float64(x1), float64(y1)))
	}
	return region.FromBoxes(2, boxes...)
}

// RandFormula draws a formula of at most the given depth over nvars
// variables, constants included.
func RandFormula(rng *workload.RNG, nvars, depth int) *formula.Formula {
	if depth == 0 || rng.IntN(4) == 0 {
		switch rng.IntN(8) {
		case 0:
			return formula.Zero()
		case 1:
			return formula.One()
		}
		return formula.Var(rng.IntN(nvars))
	}
	switch rng.IntN(3) {
	case 0:
		return formula.Not(RandFormula(rng, nvars, depth-1))
	case 1:
		return formula.And(RandFormula(rng, nvars, depth-1), RandFormula(rng, nvars, depth-1))
	}
	return formula.Or(RandFormula(rng, nvars, depth-1), RandFormula(rng, nvars, depth-1))
}
