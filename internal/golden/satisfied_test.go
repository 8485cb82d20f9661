package golden

import (
	"testing"

	"repro/internal/boolalg"
	"repro/internal/lang"
	"repro/internal/region"
	"repro/internal/region/regiontest"
	"repro/internal/spatialdb"
)

// TestSatisfiedMatchesReferenceOnFixtures walks every corpus case's full
// cross product (capped per case) and checks that System.Satisfied — the
// final check on every tuple, lowered to containment and overlap tests
// over the signed region algebra, heap- and scratch-backed — agrees tuple
// by tuple with the pre-lowering implementation over the reference
// algebra: evaluate Diff(Lhs, Rhs) with a materialised complement, test
// for emptiness.
func TestSatisfiedMatchesReferenceOnFixtures(t *testing.T) {
	const maxTuples = 20000
	for _, f := range Fixtures() {
		store := BuildStore(f, spatialdb.Scan)
		alg := region.NewAlgebra(f.Universe)
		ref := regiontest.NewReference(f.Universe)
		var scr region.Scratch
		bound := alg.Bind(&scr)
		for _, c := range FixtureCases(f.Name) {
			q, err := lang.Parse(c.Query)
			if err != nil {
				t.Fatalf("%s: %v", c.Name, err)
			}
			env := make([]boolalg.Element, q.Sys.Vars.Len())
			for name, r := range f.Params {
				if v, ok := q.Sys.Vars.Lookup(name); ok {
					env[v] = r
				}
			}
			layers := make([][]spatialdb.Object, len(q.Retrieve))
			vars := make([]int, len(q.Retrieve))
			for i, b := range q.Retrieve {
				layers[i] = store.Layer(b.Layer).Objects()
				vars[i], _ = q.Sys.Vars.Lookup(b.Var)
			}
			tuples, holds := 0, 0
			var rec func(i int)
			rec = func(i int) {
				if tuples >= maxTuples {
					return
				}
				if i < len(layers) {
					for _, o := range layers[i] {
						env[vars[i]] = o.Reg
						rec(i + 1)
					}
					return
				}
				tuples++
				want := ref.Satisfied(q.Sys, env)
				scr.Reset()
				if heap, scratch := q.Sys.Satisfied(alg, env), q.Sys.Satisfied(&bound, env); heap != want || scratch != want {
					t.Fatalf("%s/%s: env %v: Satisfied = %v (heap) / %v (scratch), reference %v",
						f.Name, c.Name, env, heap, scratch, want)
				}
				if want {
					holds++
				}
			}
			rec(0)
			t.Logf("%s/%s: %d tuples, %d satisfy", f.Name, c.Name, tuples, holds)
		}
	}
}
