package query

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/bbox"
	"repro/internal/formula"
	"repro/internal/region"
	"repro/internal/spatialdb"
	"repro/internal/workload"
)

// randSystem builds a random constraint system over two retrieval
// variables (x, y) and one parameter (C) from a seeded RNG. It returns the
// query with retrieval bindings attached.
func randSystem(rng *workload.RNG) *Query { return randSystemN(rng, 2) }

// randSystemN is randSystem over n ≤ 5 retrieval variables x, y, z, w, v,
// drawn from layers xs, ys, zs, ws, vs.
func randSystemN(rng *workload.RNG, n int) *Query {
	q := New()
	names := []string{"x", "y", "z", "w", "v"}[:n]
	var atoms []*formula.Formula
	for _, name := range names {
		atoms = append(atoms, q.Sys.Var(name))
	}
	atoms = append(atoms, q.Sys.Var("C"), formula.One())

	randFormula := func() *formula.Formula {
		f := atoms[rng.IntN(len(atoms))]
		for i := 0; i < rng.IntN(3); i++ {
			g := atoms[rng.IntN(len(atoms))]
			switch rng.IntN(3) {
			case 0:
				f = formula.And(f, g)
			case 1:
				f = formula.Or(f, g)
			default:
				f = formula.And(f, formula.Not(g))
			}
		}
		return f
	}

	ncons := 1 + rng.IntN(4)
	for i := 0; i < ncons; i++ {
		f, g := randFormula(), randFormula()
		switch rng.IntN(5) {
		case 0:
			q.Sys.Subset(f, g)
		case 1:
			q.Sys.NotSubset(f, g)
		case 2:
			q.Sys.Overlap(f, g)
		case 3:
			q.Sys.Disjoint(f, g)
		default:
			q.Sys.NonEmpty(f)
		}
	}
	// Make sure every retrieval variable appears somewhere.
	for i, name := range names {
		q.Sys.Overlap(atoms[i], formula.One())
		q.From(name, name+"s")
	}
	return q
}

// randSmugglerSystem is a random system in the shape of the smuggler
// query's hot template: x ⊑ A ∨ B ∨ y over two parameters, plus up to two
// more constraints from the template's vocabulary, with the bindings in
// either order. Retrieving y after x has the complemented lower bound
// x ∧ ¬A ∧ ¬B, which Algorithm 2 approximates by ∅ and the executor bounds
// by its exact box.
func randSmugglerSystem(rng *workload.RNG) *Query {
	q := New()
	x, y, a, b := q.Sys.Var("x"), q.Sys.Var("y"), q.Sys.Var("A"), q.Sys.Var("B")
	q.Sys.Subset(x, formula.OrN(a, b, y))
	for i := rng.IntN(3); i > 0; i-- {
		switch rng.IntN(4) {
		case 0:
			q.Sys.Overlap(x, y)
		case 1:
			q.Sys.NotSubset(y, a)
		case 2:
			q.Sys.Subset(y, formula.Or(a, x))
		default:
			q.Sys.Overlap(x, b)
		}
	}
	if rng.IntN(2) == 0 {
		return q.From("x", "xs").From("y", "ys")
	}
	return q.From("y", "ys").From("x", "xs")
}

// TestFuzzOptimizedAgainstNaive is the end-to-end differential test: for
// random constraint systems over random stores, every optimizer
// configuration must return exactly the naive cross product's solutions.
// This exercises normalization, projection, solved forms, bounding-box
// approximation, the indexes and the executor together. Trials from 40 on
// draw smuggler-shaped systems (randSmugglerSystem) on all five backends,
// with a large parameter A so that some of them have solutions.
func TestFuzzOptimizedAgainstNaive(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz test skipped in -short mode")
	}
	universe := bbox.Rect(0, 0, 64, 64)
	answered := 0 // smuggler-shaped trials with solutions
	for trial := 0; trial < 80; trial++ {
		rng := workload.NewRNG(uint64(trial) + 1000)
		smuggler := trial >= 40
		var q *Query
		if smuggler {
			q = randSmugglerSystem(rng)
		} else {
			q = randSystem(rng)
		}

		kinds := []spatialdb.IndexKind{
			spatialdb.Scan, spatialdb.RTree, spatialdb.PointRTree, spatialdb.Grid, spatialdb.ZOrderIdx,
		}
		kind := kinds[trial%4]
		if smuggler {
			kind = kinds[trial%5]
		}
		store := spatialdb.NewStore(universe, kind)
		for i := 0; i < 6; i++ {
			store.MustInsert("xs", fmt.Sprintf("x%d", i), workload.RandRegion(rng, universe, 2))
			store.MustInsert("ys", fmt.Sprintf("y%d", i), workload.RandRegion(rng, universe, 2))
		}
		params := map[string]*region.Region{"C": workload.RandRegion(rng, universe, 2)}
		if smuggler {
			x0, y0 := rng.Range(0, 24), rng.Range(0, 24)
			params = map[string]*region.Region{
				"A": region.FromBox(bbox.Rect(x0, y0, x0+40, y0+40)),
				"B": workload.RandRegion(rng, universe, 2),
			}
		}

		naive, err := RunNaive(q, store, params)
		if err != nil {
			t.Fatalf("trial %d: naive: %v", trial, err)
		}
		plan, err := Compile(q, store)
		if err != nil {
			t.Fatalf("trial %d: compile: %v\nsystem:\n%s", trial, err, q.Sys)
		}
		for _, opts := range []Options{
			{UseIndex: false, UseExact: false},
			{UseIndex: false, UseExact: true},
			{UseIndex: true, UseExact: false},
			{UseIndex: true, UseExact: true},
		} {
			res, err := plan.Run(store, params, opts)
			if err != nil {
				t.Fatalf("trial %d: run: %v", trial, err)
			}
			if res.Stats.Solutions != naive.Stats.Solutions {
				t.Fatalf("trial %d (%v, opts %+v): optimized %d solutions, naive %d\nsystem:\n%s\nplan:\n%s",
					trial, kind, opts, res.Stats.Solutions, naive.Stats.Solutions,
					q.Sys, plan.Explain())
			}
		}
		if smuggler && naive.Stats.Solutions > 0 {
			answered++
		}
	}
	if answered < 10 {
		t.Errorf("%d of 40 smuggler-shaped trials have solutions; the generator should give at least 10", answered)
	}
}

// TestFuzzAdaptiveAgainstNaive extends the differential fuzz to the
// adaptive pipeline: whatever order CompileAdaptive picks, the solutions
// must equal the naive cross product's, and the selectivity
// estimates it is built on must be finite, non-negative and bounded by
// the layer population — including on empty layers, empty and degenerate
// boxes, and randomly shaped specs.
func TestFuzzAdaptiveAgainstNaive(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz test skipped in -short mode")
	}
	universe := bbox.Rect(0, 0, 64, 64)
	for trial := 0; trial < 40; trial++ {
		rng := workload.NewRNG(uint64(trial) + 9000)
		q := randSystem(rng)

		kind := []spatialdb.IndexKind{
			spatialdb.Scan, spatialdb.RTree, spatialdb.PointRTree, spatialdb.Grid,
		}[trial%4]
		store := spatialdb.NewStore(universe, kind)
		// xs is sometimes left empty: estimation and execution must both
		// handle a zero-population layer.
		nx := 6
		if trial%5 == 0 {
			nx = 0
			store.Layer("xs") // exists, holds nothing
		}
		for i := 0; i < nx; i++ {
			store.MustInsert("xs", fmt.Sprintf("x%d", i), workload.RandRegion(rng, universe, 2))
		}
		for i := 0; i < 6; i++ {
			store.MustInsert("ys", fmt.Sprintf("y%d", i), workload.RandRegion(rng, universe, 2))
		}
		params := map[string]*region.Region{"C": workload.RandRegion(rng, universe, 2)}

		naive, err := RunNaive(q, store, params)
		if err != nil {
			t.Fatalf("trial %d: naive: %v", trial, err)
		}
		plan, err := CompileAdaptive(q, store, AdaptiveOptions{Params: params})
		if err != nil {
			t.Fatalf("trial %d: adaptive compile: %v\nsystem:\n%s", trial, err, q.Sys)
		}
		res, err := plan.Run(store, params, DefaultOptions)
		if err != nil {
			t.Fatalf("trial %d: adaptive run: %v", trial, err)
		}
		staticPlan, err := Compile(SuggestOrder(q, store, params), store)
		if err != nil {
			t.Fatalf("trial %d: static compile: %v\nsystem:\n%s", trial, err, q.Sys)
		}
		staticRes, err := staticPlan.Run(store, params, DefaultOptions)
		if err != nil {
			t.Fatalf("trial %d: static run: %v", trial, err)
		}
		want := canonSolutions(q.Retrieve, naive.Solutions)
		if got := canonSolutions(plan.Bindings(), res.Solutions); !sameSolutionSet(got, want) {
			t.Fatalf("trial %d (%v, order %s): adaptive solutions %v, naive %v\nsystem:\n%s\nplan:\n%s",
				trial, kind, plan.OrderKey(), got, want, q.Sys, plan.Explain())
		}
		if got := canonSolutions(staticPlan.Bindings(), staticRes.Solutions); !sameSolutionSet(got, want) {
			t.Fatalf("trial %d (%v): static plan solutions %v, naive %v\nsystem:\n%s",
				trial, kind, got, want, q.Sys)
		}

		// Estimator invariants over the plan's own specs plus random ones.
		cost := estimatePlanCost(plan, store, paramBoxes(nil, plan.Query, store, params))
		if math.IsNaN(cost) || cost < 0 {
			t.Fatalf("trial %d: plan cost = %v", trial, cost)
		}
		for _, layer := range []string{"xs", "ys"} {
			l, ok := store.LayerIfExists(layer)
			if !ok {
				continue
			}
			ds := l.DataStats()
			for probe := 0; probe < 20; probe++ {
				spec := bbox.RangeSpec{K: 2, Lower: randFuzzBox(rng, universe), Upper: randFuzzBox(rng, universe)}
				if probe%3 == 0 {
					spec.Overlaps = append(spec.Overlaps, randFuzzBox(rng, universe))
				}
				est := ds.EstimateSpec(spec)
				if math.IsNaN(est) || math.IsInf(est, 0) || est < 0 || est > float64(ds.Count()) {
					t.Fatalf("trial %d: layer %q estimate %v outside [0, %d] for spec %+v",
						trial, layer, est, ds.Count(), spec)
				}
			}
		}
	}
}

// canonSolutions keys a solution list by sorted Var=object pairs — the
// order-insensitive, binding-order-insensitive form the differential
// checks compare. Bindings must be the plan's output bindings
// (Plan.Bindings(), or Query.Retrieve for the naive executor).
func canonSolutions(bindings []Binding, sols []Solution) map[string]int {
	out := map[string]int{}
	for _, s := range sols {
		pairs := make([]string, len(s.Objects))
		for i, o := range s.Objects {
			pairs[i] = bindings[i].Var + "=" + o.Name
		}
		sort.Strings(pairs)
		out[strings.Join(pairs, ",")]++
	}
	return out
}

func sameSolutionSet(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, n := range a {
		if b[k] != n {
			return false
		}
	}
	return true
}

// randFuzzBox produces boxes biased toward the estimator's edge cases:
// empty, degenerate (zero-width), universe-sized and ordinary random
// boxes.
func randFuzzBox(rng *workload.RNG, universe bbox.Box) bbox.Box {
	switch rng.IntN(5) {
	case 0:
		return bbox.Empty(2)
	case 1:
		return universe
	case 2:
		x := float64(rng.IntN(64))
		y := float64(rng.IntN(64))
		return bbox.Rect(x, y, x, y) // degenerate point box
	default:
		return workload.RandRegion(rng, universe, 1).BoundingBox()
	}
}

// TestFuzzThreeVariableChains stresses deeper retrieval chains (3 steps)
// where projections compose: again optimized must equal naive.
func TestFuzzThreeVariableChains(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz test skipped in -short mode")
	}
	universe := bbox.Rect(0, 0, 64, 64)
	for trial := 0; trial < 15; trial++ {
		rng := workload.NewRNG(uint64(trial) + 5000)
		q := New()
		x := q.Sys.Var("x")
		y := q.Sys.Var("y")
		z := q.Sys.Var("z")
		c := q.Sys.Var("C")
		// Chain-shaped system with a random twist per trial.
		q.Sys.Subset(x, formula.Or(y, c))
		q.Sys.Overlap(y, z)
		switch trial % 3 {
		case 0:
			q.Sys.NotSubset(z, c)
		case 1:
			q.Sys.Disjoint(x, formula.Not(c))
		default:
			q.Sys.NonEmpty(formula.And(y, c))
		}
		q.From("x", "xs").From("y", "ys").From("z", "zs")

		store := spatialdb.NewStore(universe, spatialdb.RTree)
		for i := 0; i < 5; i++ {
			store.MustInsert("xs", fmt.Sprintf("x%d", i), workload.RandRegion(rng, universe, 2))
			store.MustInsert("ys", fmt.Sprintf("y%d", i), workload.RandRegion(rng, universe, 2))
			store.MustInsert("zs", fmt.Sprintf("z%d", i), workload.RandRegion(rng, universe, 2))
		}
		params := map[string]*region.Region{"C": workload.RandRegion(rng, universe, 2)}

		naive, err := RunNaive(q, store, params)
		if err != nil {
			t.Fatal(err)
		}
		res, err := CompileAndRun(q, store, params)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Solutions != naive.Stats.Solutions {
			t.Fatalf("trial %d: optimized %d, naive %d\nsystem:\n%s",
				trial, res.Stats.Solutions, naive.Stats.Solutions, q.Sys)
		}
	}
}
