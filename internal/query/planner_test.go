package query

import (
	"testing"

	"repro/internal/region"
	"repro/internal/spatialdb"
	"repro/internal/workload"
)

func TestSuggestOrderSingleVariableIsIdentity(t *testing.T) {
	store := spatialdb.NewStore(workload.GenMap(workload.MapConfig{Seed: 1}).Config.Universe, spatialdb.Scan)
	q := New()
	x, c := q.Sys.Var("x"), q.Sys.Var("C")
	q.Sys.Subset(x, c)
	q.From("x", "towns")
	if got := SuggestOrder(q, store, nil); len(got.Retrieve) != 1 || got.Retrieve[0].Var != "x" {
		t.Errorf("SuggestOrder changed a single binding: %v", got.Retrieve)
	}
}

func TestSuggestOrderPrefersConnectedAndSmall(t *testing.T) {
	m := workload.GenMap(workload.MapConfig{Seed: 3})
	store := spatialdb.NewStore(m.Config.Universe, spatialdb.RTree)
	m.Populate(store)

	// Without parameter values every parameter plans as the universe box,
	// and the layer statistics steer the walk: states (9 objects) is the
	// smallest first fanout, so B goes first; given B, towns' range query
	// is estimated to return fewer candidates than roads', so T goes
	// next, then R.
	q := Smuggler()
	got := SuggestOrder(q, store, nil)
	order := []string{got.Retrieve[0].Var, got.Retrieve[1].Var, got.Retrieve[2].Var}
	if order[0] != "B" || order[1] != "T" || order[2] != "R" {
		t.Errorf("suggested order = %v", order)
	}
	// The reordered query must still produce identical solutions.
	params := map[string]*region.Region{"C": m.Country, "A": m.Area}
	orig, err := CompileAndRun(q, store, params)
	if err != nil {
		t.Fatal(err)
	}
	reordered, err := CompileAndRun(got, store, params)
	if err != nil {
		t.Fatal(err)
	}
	if orig.Stats.Solutions != reordered.Stats.Solutions {
		t.Errorf("reordering changed solutions: %d vs %d",
			orig.Stats.Solutions, reordered.Stats.Solutions)
	}
}

func TestSuggestOrderDoesNotMutateInput(t *testing.T) {
	m := workload.GenMap(workload.MapConfig{Seed: 3})
	store := spatialdb.NewStore(m.Config.Universe, spatialdb.RTree)
	m.Populate(store)
	q := Smuggler()
	before := append([]Binding(nil), q.Retrieve...)
	SuggestOrder(q, store, nil)
	for i := range before {
		if q.Retrieve[i] != before[i] {
			t.Fatalf("input query mutated")
		}
	}
}

// Exhaustive check on the smuggler query: the suggested order is not the
// worst permutation.
func TestSuggestOrderNearBestPermutation(t *testing.T) {
	m := workload.GenMap(workload.MapConfig{Seed: 42})
	store := spatialdb.NewStore(m.Config.Universe, spatialdb.RTree)
	m.Populate(store)
	params := map[string]*region.Region{"C": m.Country, "A": m.Area}

	base := Smuggler()
	perms := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	best, worst := -1, -1
	counts := map[string]int{}
	for _, p := range perms {
		q := &Query{Sys: base.Sys}
		for _, i := range p {
			q.Retrieve = append(q.Retrieve, base.Retrieve[i])
		}
		res, err := CompileAndRun(q, store, params)
		if err != nil {
			t.Fatal(err)
		}
		key := q.Retrieve[0].Var + q.Retrieve[1].Var + q.Retrieve[2].Var
		counts[key] = res.Stats.Candidates
		if best < 0 || res.Stats.Candidates < best {
			best = res.Stats.Candidates
		}
		if res.Stats.Candidates > worst {
			worst = res.Stats.Candidates
		}
	}
	// The static heuristic sees structure but not data selectivity
	// (it cannot know that few roads overlap the area); it must at least
	// avoid the worst orders.
	suggested := SuggestOrder(base, store, params)
	res, err := CompileAndRun(suggested, store, params)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Candidates >= worst {
		t.Errorf("static order examines %d candidates; best %d, worst %d (all: %v)",
			res.Stats.Candidates, best, worst, counts)
	}
}
