package query

import (
	"context"
	"testing"

	"repro/internal/bbox"
	"repro/internal/formula"
	"repro/internal/region"
	"repro/internal/spatialdb"
)

// The run-time lower box (execFrame.joinExactLower): each step's range
// query also requires the bounding box of its exact lower bound, clipped
// to the universe. Every case runs on all five backends and must return
// exactly RunNaiveCtx's solutions.

var lowerBoxUniverse = bbox.Rect(0, 0, 100, 100)

// lowerBoxStore fills a store of the given kind.
func lowerBoxStore(t *testing.T, kind spatialdb.IndexKind, layers map[string]map[string]bbox.Box) *spatialdb.Store {
	t.Helper()
	store := spatialdb.NewStore(lowerBoxUniverse, kind)
	for layer, objs := range layers {
		for name, b := range objs {
			store.MustInsert(layer, name, region.FromBox(b))
		}
	}
	return store
}

// runAgainstNaive runs plan with every filter on, fails the test unless it
// returns exactly the naive executor's solutions, and returns its result.
func runAgainstNaive(t *testing.T, kind spatialdb.IndexKind, plan *Plan, store *spatialdb.Store, params map[string]*region.Region) *Result {
	t.Helper()
	res, err := plan.RunCtx(context.Background(), store, params, DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := RunNaiveCtx(context.Background(), plan.Query, store, params, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := solutionKeys(res), solutionKeys(naive); !equalKeys(got, want) {
		t.Fatalf("%v: solutions %v, naive %v\n%s", kind, got, want, plan.Explain())
	}
	return res
}

// ¬P ∧ ¬Y ⊑ X: the exact lower bound is a complement, which gives no box.
// It must be ignored, not turned into a constraint: every x is probed for
// every y and the exact filter decides.
func TestLowerBoxIgnoresComplement(t *testing.T) {
	layers := map[string]map[string]bbox.Box{
		"ys": {
			"y-top":  bbox.Rect(0, 90, 50, 100),
			"y-none": bbox.Rect(60, 10, 70, 20),
		},
		"xs": {
			"x-right": bbox.Rect(50, 85, 100, 100),
			"x-full":  bbox.Rect(0, 88, 100, 100),
			"x-small": bbox.Rect(10, 10, 20, 20),
		},
	}
	params := map[string]*region.Region{"P": region.FromBox(bbox.Rect(0, 0, 100, 90))}
	q := New()
	y, x, p := q.Sys.Var("Y"), q.Sys.Var("X"), q.Sys.Var("P")
	q.Sys.Subset(formula.And(formula.Not(p), formula.Not(y)), x)
	q.From("Y", "ys").From("X", "xs")
	for _, kind := range allKinds {
		store := lowerBoxStore(t, kind, layers)
		plan, err := Compile(q, store)
		if err != nil {
			t.Fatal(err)
		}
		res := runAgainstNaive(t, kind, plan, store, params)
		if res.Stats.Solutions != 3 {
			t.Errorf("%v: %d solutions, want 3", kind, res.Stats.Solutions)
		}
		if want := 2 + 2*3; res.Stats.Candidates != want {
			t.Errorf("%v: %d candidates, want %d (an unconstrained probe per y)", kind, res.Stats.Candidates, want)
		}
	}
}

// lowerOnlyQuery is P ∧ ¬Q ⊑ X: Algorithm 2 bounds X's lower side by ∅,
// and only the exact lower box P ∧ ¬Q constrains the probe.
func lowerOnlyQuery() *Query {
	q := New()
	x, p, qv := q.Sys.Var("X"), q.Sys.Var("P"), q.Sys.Var("Q")
	q.Sys.Subset(formula.And(p, formula.Not(qv)), x)
	return q.From("X", "xs")
}

// Every stored x is at most 30 units wide and lies in the left half; P ∧
// ¬Q is an 80-unit box. No stored box can contain it, so the probe
// returns nothing where a probe without the exact box would return every
// x.
func lowerBoxFixture(t *testing.T, kind spatialdb.IndexKind) (*spatialdb.Store, map[string]*region.Region) {
	layers := map[string]map[string]bbox.Box{"xs": {
		"x-1": bbox.Rect(0, 0, 30, 30),
		"x-2": bbox.Rect(10, 40, 40, 70),
		"x-3": bbox.Rect(20, 60, 50, 90),
	}}
	params := map[string]*region.Region{
		"P": region.FromBox(bbox.Rect(10, 10, 90, 90)),
		"Q": region.FromBox(bbox.Rect(0, 0, 5, 5)),
	}
	return lowerBoxStore(t, kind, layers), params
}

func TestLowerBoxLargerThanEveryObject(t *testing.T) {
	for _, kind := range allKinds {
		store, params := lowerBoxFixture(t, kind)
		plan, err := Compile(lowerOnlyQuery(), store)
		if err != nil {
			t.Fatal(err)
		}
		res := runAgainstNaive(t, kind, plan, store, params)
		if st := res.Stats; st.DB.Queries != 1 || st.DB.Returned != 0 || st.Candidates != 0 {
			t.Errorf("%v: %d probes returned %d objects, %d candidates; want one probe returning nothing",
				kind, st.DB.Queries, st.DB.Returned, st.Candidates)
		}
	}
}

// A reached prefix's exact lower bound lies inside its upper bound — the
// triangular form guarantees it — so the template's upper box contains
// the lower box and the prune only fires on a tighter upper box. Here the
// template's upper side is narrowed to a bound the data guarantees (every
// stored x lies in the left half). P ∧ ¬Q reaches into the right half, so
// the prefix is pruned without a probe and Stats.DB.Queries stays 0.
func TestLowerBoxOutsideUpperPrunesWithoutProbe(t *testing.T) {
	for _, kind := range allKinds {
		store, params := lowerBoxFixture(t, kind)
		plan, err := Compile(lowerOnlyQuery(), store)
		if err != nil {
			t.Fatal(err)
		}
		plan.Steps[0].Upper = bbox.ConstFunc(bbox.Rect(0, 0, 50, 100))
		compilePrograms(plan.Steps)
		res := runAgainstNaive(t, kind, plan, store, params)
		if st := res.Stats; st.DB.Queries != 0 || st.Candidates != 0 {
			t.Errorf("%v: %d probes, %d candidates; want the prefix pruned before its probe", kind, st.DB.Queries, st.Candidates)
		}
	}
}
