package bbox_test

import (
	"testing"

	"repro/internal/bbox"
	"repro/internal/boolalg"
	"repro/internal/formula"
	"repro/internal/region"
	"repro/internal/workload"
)

// TestApproximationSoundnessOverRegions is the semantic contract of
// Algorithm 2, checked against the real region algebra: for random Boolean
// functions f and random region values,
//
//	L_f(⌈x₁⌉,…) ⊑ ⌈f(x₁,…)⌉ ⊑ U_f(⌈x₁⌉,…).
//
// This is the property that makes bounding-box filtering sound in the
// executor (Definition of ≼/≽ approximation in §4).
func TestApproximationSoundnessOverRegions(t *testing.T) {
	universe := bbox.Rect(0, 0, 100, 100)
	alg := region.NewAlgebra(universe)
	rng := workload.NewRNG(99)

	x, y, z := formula.Var(0), formula.Var(1), formula.Var(2)
	formulas := []*formula.Formula{
		x,
		formula.And(x, y),
		formula.Or(x, y),
		formula.Diff(x, y),
		formula.Xor(x, y),
		formula.OrN(formula.And(x, y), formula.And(y, z), formula.And(z, x)),
		formula.And(formula.Or(x, y), formula.Or(x, formula.Not(z))),
		formula.Not(formula.Or(x, y)),
		formula.OrN(formula.And(formula.Not(x), y), formula.And(x, y),
			formula.AndN(x, z)),
		formula.Implies(x, formula.And(y, z)),
	}
	for fi, f := range formulas {
		a, err := bbox.Approximate(f)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 25; trial++ {
			regs := []boolalg.Element{
				workload.RandRegion(rng, universe, 3),
				workload.RandRegion(rng, universe, 3),
				workload.RandRegion(rng, universe, 3),
			}
			boxes := make([]bbox.Box, 3)
			for i, r := range regs {
				boxes[i] = alg.Region(r).BoundingBox()
			}
			val := alg.Region(formula.Eval(f, alg, regs))
			exact := val.BoundingBox()
			lower := a.L.Eval(2, boxes)
			upper := a.U.Eval(2, boxes)
			// Complement-heavy functions reach the universe box; clip the
			// exact box comparison to the universe where needed.
			if !exact.Contains(lower.Meet(universe)) {
				t.Fatalf("formula %d trial %d: L_f = %v ⋢ ⌈f⌉ = %v", fi, trial, lower, exact)
			}
			if !upper.Contains(exact) {
				t.Fatalf("formula %d trial %d: ⌈f⌉ = %v ⋢ U_f = %v", fi, trial, exact, upper)
			}
		}
	}
}

// The bounds must also be *attained* in simple cases: for f = x ∨ y both
// bounds coincide with the exact bounding box.
func TestBoundsTightOnDisjunction(t *testing.T) {
	universe := bbox.Rect(0, 0, 100, 100)
	rng := workload.NewRNG(5)
	f := formula.Or(formula.Var(0), formula.Var(1))
	a, err := bbox.Approximate(f)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		rx := workload.RandRegion(rng, universe, 2)
		ry := workload.RandRegion(rng, universe, 2)
		exact := rx.Union(ry).BoundingBox()
		boxes := []bbox.Box{rx.BoundingBox(), ry.BoundingBox()}
		if !a.L.Eval(2, boxes).Equal(exact) || !a.U.Eval(2, boxes).Equal(exact) {
			t.Fatalf("bounds not tight on x∨y: L=%v U=%v exact=%v",
				a.L.Eval(2, boxes), a.U.Eval(2, boxes), exact)
		}
	}
}
