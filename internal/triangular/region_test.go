package triangular

import (
	"testing"

	"repro/internal/boolalg"
	"repro/internal/constraint"
	"repro/internal/region"
	"repro/internal/region/regiontest"
	"repro/internal/workload"
)

// TestStepFilterMatchesReference: for random systems compiled to
// triangular form, the executor's per-candidate filter — ValuesInto once
// per prefix, SatisfiedWith per candidate, over the scratch-backed signed
// region algebra — accepts exactly the candidates Step.Satisfied accepts
// over the reference algebra with its materialised complement. Regions
// touch on null sets and straddle or exceed the universe.
func TestStepFilterMatchesReference(t *testing.T) {
	universe := regiontest.GridUniverse
	alg := region.NewAlgebra(universe)
	ref := regiontest.NewReference(universe)
	var scr region.Scratch
	bound := alg.Bind(&scr)
	rng := workload.NewRNG(22)

	compiled, accepted, rejected := 0, 0, 0
	for trial := 0; trial < 600; trial++ {
		const nvars = 4 // x0, x1 are parameters; x2, x3 are retrieved
		sys := &constraint.System{}
		for n := 2 + rng.IntN(3); n > 0; n-- {
			sys.Cons = append(sys.Cons, constraint.Constraint{
				Lhs:      regiontest.RandFormula(rng, nvars, 2),
				Rhs:      regiontest.RandFormula(rng, nvars, 2),
				Negative: rng.IntN(2) == 0,
			})
		}
		form, err := Compile(sys.Normalize(), []int{2, 3})
		if err != nil || form.Unsat {
			continue
		}
		compiled++
		var vals StepValues
		for prefix := 0; prefix < 4; prefix++ {
			env := make([]boolalg.Element, nvars)
			for v := range env {
				env[v] = regiontest.GridRegion(rng)
			}
			for i, st := range form.Steps {
				for v := st.Var; v < nvars; v++ {
					env[v] = nil // the step sees parameters and earlier variables only
				}
				scr.Reset()
				st.ValuesInto(&bound, env, &vals)
				for c := 0; c < 6; c++ {
					cand := regiontest.GridRegion(rng)
					want := st.Satisfied(ref, ref.Env(env), ref.Env([]boolalg.Element{cand})[0])
					if got := st.SatisfiedWith(&bound, vals, cand); got != want {
						t.Fatalf("trial %d step %d: system\n%v\nform\n%v\nenv %v cand %v: filter says %v, reference %v",
							trial, i, sys.Cons, form, env, cand, got, want)
					}
					if want {
						accepted++
					} else {
						rejected++
					}
				}
				env[st.Var] = regiontest.GridRegion(rng)
			}
		}
	}
	if compiled < 100 || accepted < 100 || rejected < 100 {
		t.Fatalf("weak coverage: %d systems, %d accepts, %d rejects", compiled, accepted, rejected)
	}
}
