package region_test

import (
	"testing"

	"repro/internal/bbox"
	"repro/internal/boolalg"
	"repro/internal/formula"
	"repro/internal/region"
	"repro/internal/region/regiontest"
	"repro/internal/workload"
)

// TestSignedKernelsMatchReference is the semantics pin: for random
// formulas over regions that touch on null sets and straddle or exceed
// the universe, every predicate of the signed algebra — heap-backed and
// scratch-backed — answers what the reference algebra answers with a
// materialised complement, and every element materialises to the
// reference's element.
func TestSignedKernelsMatchReference(t *testing.T) {
	universe := regiontest.GridUniverse
	alg := region.NewAlgebra(universe)
	ref := regiontest.NewReference(universe)
	var scr region.Scratch
	bound := alg.Bind(&scr)
	rng := workload.NewRNG(20261003)

	for trial := 0; trial < 4000; trial++ {
		nvars := 1 + rng.IntN(4)
		env := make([]boolalg.Element, nvars)
		for i := range env {
			env[i] = regiontest.GridRegion(rng)
		}
		l, r := regiontest.RandFormula(rng, nvars, 4), regiontest.RandFormula(rng, nvars, 4)
		refEnv := ref.Env(env)
		refL, refR := formula.Eval(l, ref, refEnv), formula.Eval(r, ref, refEnv)
		want := struct{ leq, overlaps, bottom, equal bool }{
			leq:      ref.Holds(l, r, env),
			overlaps: !ref.IsBottom(formula.Eval(formula.And(l, r), ref, refEnv)),
			bottom:   ref.IsBottom(refL),
			equal:    ref.Equal(refL, refR),
		}
		for name, a := range map[string]*region.Algebra{"heap": alg, "scratch": &bound} {
			scr.Reset()
			lv, rv := formula.Eval(l, a, env), formula.Eval(r, a, env)
			got := want
			got.leq = boolalg.Leq(a, lv, rv)
			got.overlaps = boolalg.Overlaps(a, lv, rv)
			got.bottom = a.IsBottom(lv)
			got.equal = a.Equal(lv, rv)
			if got != want {
				t.Fatalf("trial %d (%s): l = %v, r = %v, env = %v:\n got  %+v\n want %+v",
					trial, name, l, r, env, got, want)
			}
			if m := a.Region(lv).Intersect(region.FromBox(universe)); !m.Equal(refL.(*region.Region)) {
				t.Fatalf("trial %d (%s): %v over %v materialises to %v, reference %v",
					trial, name, l, env, m, refL)
			}
		}
	}
}

// TestBoundAlgebraAllocFree pins the scratch idiom: with a warm Scratch,
// evaluating a formula with every sign combination and deciding every
// predicate on the result allocates nothing.
func TestBoundAlgebraAllocFree(t *testing.T) {
	universe := bbox.Rect(0, 0, 100, 100)
	alg := region.NewAlgebra(universe)
	var scr region.Scratch
	bound := alg.Bind(&scr)
	x, y, z := formula.Var(0), formula.Var(1), formula.Var(2)
	env := []boolalg.Element{
		region.FromBoxes(2, bbox.Rect(10, 10, 60, 30), bbox.Rect(10, 10, 30, 60)),
		region.FromBox(bbox.Rect(20, 20, 50, 50)),
		region.FromBox(bbox.Rect(90, 90, 120, 120)), // straddles the universe
	}
	f := formula.Or(formula.And(x, formula.Not(y)), formula.Not(formula.Or(formula.Not(z), y)))
	g := formula.Not(formula.And(formula.Not(x), formula.Not(z)))
	run := func() {
		scr.Reset()
		fv, gv := formula.Eval(f, &bound, env), formula.Eval(g, &bound, env)
		boolalg.Leq(&bound, fv, gv)
		boolalg.Leq(&bound, gv, fv)
		boolalg.Overlaps(&bound, fv, gv)
		boolalg.Overlaps(&bound, bound.Complement(fv), gv)
		bound.IsBottom(bound.Complement(gv))
		bound.Equal(fv, gv)
	}
	run()
	if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
		t.Fatalf("bound algebra allocates %v per evaluation with a warm scratch, want 0", allocs)
	}
}
