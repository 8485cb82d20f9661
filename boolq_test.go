package boolq

import (
	"context"

	"testing"

	"repro/internal/workload"
)

// The README quickstart, as a test: parse, compile, run, inspect.
func TestPublicAPIQuickstart(t *testing.T) {
	store := NewStore(Rect(0, 0, 1000, 1000), RTree)
	country := RegionFromBox(Rect(100, 100, 900, 900))
	store.MustInsert("towns", "border", RegionFromBoxes(2, Rect(95, 400, 110, 415)))
	store.MustInsert("towns", "inland", RegionFromBox(Rect(400, 400, 415, 415)))

	q, err := ParseQuery(`find T in towns given C where T & ~C != 0; T & C != 0`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Compile(q, store)
	if err != nil {
		t.Fatal(err)
	}
	res, err := plan.Run(store, map[string]*Region{"C": country}, DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 1 || res.Solutions[0].Objects[0].Name != "border" {
		t.Fatalf("quickstart solutions = %v", res.Solutions)
	}
}

func TestPublicAPISmuggler(t *testing.T) {
	m := workload.GenMap(workload.MapConfig{Seed: 42})
	store := NewStore(m.Config.Universe, PointRTree)
	m.Populate(store)
	params := map[string]*Region{"C": m.Country, "A": m.Area}

	opt, err := CompileAndRun(Smuggler(), store, params)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := RunNaive(Smuggler(), store, params)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Stats.Solutions != naive.Stats.Solutions || opt.Stats.Solutions == 0 {
		t.Fatalf("optimized %d solutions, naive %d",
			opt.Stats.Solutions, naive.Stats.Solutions)
	}
	if opt.Stats.Candidates >= naive.Stats.Candidates {
		t.Errorf("no pruning: %d vs %d candidates",
			opt.Stats.Candidates, naive.Stats.Candidates)
	}
}

func TestPublicAPIProgrammaticQuery(t *testing.T) {
	store := NewStore(Rect(0, 0, 100, 100), Grid)
	store.MustInsert("objs", "a", RegionFromBox(Rect(10, 10, 20, 20)))
	store.MustInsert("objs", "b", RegionFromBox(Rect(50, 50, 60, 60)))

	q := NewQuery()
	x, c := q.Sys.Var("x"), q.Sys.Var("C")
	q.Sys.Subset(x, c)
	q.From("x", "objs")

	res, err := CompileAndRun(q, store, map[string]*Region{
		"C": RegionFromBox(Rect(0, 0, 30, 30)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 1 || res.Solutions[0].Objects[0].Name != "a" {
		t.Fatalf("solutions = %v", res.Solutions)
	}
}

// The bounded-execution surface through the public API: limits truncate,
// cancelled contexts stop every executor, streaming yields per solution.
func TestPublicAPIBoundedExecution(t *testing.T) {
	m := workload.GenMap(workload.MapConfig{Seed: 42})
	store := NewStore(m.Config.Universe, RTree)
	m.Populate(store)
	params := map[string]*Region{"C": m.Country, "A": m.Area}
	plan, err := Compile(Smuggler(), store)
	if err != nil {
		t.Fatal(err)
	}

	opts := DefaultOptions
	opts.Limit = 1
	res, err := plan.RunCtx(context.Background(), store, params, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 1 || !res.Stats.Truncated {
		t.Fatalf("limit 1: %d solutions, truncated=%v", len(res.Solutions), res.Stats.Truncated)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, run := range map[string]func() (*Result, error){
		"RunCtx":         func() (*Result, error) { return plan.RunCtx(ctx, store, params, DefaultOptions) },
		"RunParallelCtx": func() (*Result, error) { return plan.RunParallelCtx(ctx, store, params, DefaultOptions, 4) },
		"RunNaiveCtx":    func() (*Result, error) { return RunNaiveCtx(ctx, Smuggler(), store, params, Options{}) },
	} {
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Stats.Cancelled || len(res.Solutions) != 0 {
			t.Errorf("%s: cancelled=%v, %d solutions", name, res.Stats.Cancelled, len(res.Solutions))
		}
	}

	streamed := 0
	stats, err := plan.RunStream(context.Background(), store, params, DefaultOptions, 1,
		func(Solution) bool { streamed++; return true })
	if err != nil {
		t.Fatal(err)
	}
	if streamed == 0 || streamed != stats.Solutions {
		t.Fatalf("stream yielded %d solutions, stats say %d", streamed, stats.Solutions)
	}
}
