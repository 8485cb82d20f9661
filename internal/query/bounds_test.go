package query

import (
	"context"
	"testing"
	"time"

	"repro/internal/region"
	"repro/internal/spatialdb"
	"repro/internal/workload"
)

var allKinds = []spatialdb.IndexKind{
	spatialdb.Scan, spatialdb.RTree, spatialdb.PointRTree,
	spatialdb.Grid, spatialdb.ZOrderIdx,
}

// heavyFixture builds a map big enough that the unfiltered cross product
// (no index, no exact filter) takes far longer than the cancellation
// deadlines the tests use: 250 towns × 600 roads × 36 states, about
// 5.5 million candidates, which the serial executor needs well over a
// second for (1.6 s on a 2-core x86-64 VM) and the parallel one about
// half that. Building it takes a few milliseconds.
func heavyFixture(t *testing.T, kind spatialdb.IndexKind) (*spatialdb.Store, map[string]*region.Region) {
	t.Helper()
	return smugglerFixture(t, kind, workload.MapConfig{Seed: 7, Towns: 150, Interior: 100, Roads: 600, StatesX: 6, StatesY: 6})
}

// slowOptions disables both filters: every step scans its whole layer
// and every complete tuple is verified in the region algebra — the
// pathological workload the bounds exist for.
var slowOptions = Options{}

// runExecutor dispatches one of the three executors by name.
func runExecutor(t *testing.T, name string, ctx context.Context, plan *Plan,
	store *spatialdb.Store, params map[string]*region.Region, opts Options) *Result {
	t.Helper()
	var (
		res *Result
		err error
	)
	switch name {
	case "serial":
		res, err = plan.RunCtx(ctx, store, params, opts)
	case "parallel":
		res, err = plan.RunParallelCtx(ctx, store, params, opts, 4)
	case "naive":
		res, err = RunNaiveCtx(ctx, plan.Query, store, params, opts)
	default:
		t.Fatalf("unknown executor %q", name)
	}
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res
}

var executors = []string{"serial", "parallel", "naive"}

// TestCancelledBeforeStart: an already-cancelled context returns an
// empty partial result flagged Cancelled, without doing any index work —
// across all three executors and all five backends.
func TestCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, kind := range allKinds {
		store, params := smugglerFixture(t, kind, workload.MapConfig{Seed: 3})
		plan, err := Compile(Smuggler(), store)
		if err != nil {
			t.Fatal(err)
		}
		for _, exec := range executors {
			res := runExecutor(t, exec, ctx, plan, store, params, DefaultOptions)
			if !res.Stats.Cancelled {
				t.Errorf("%s/%s: Cancelled not set on pre-cancelled context", kind, exec)
			}
			if res.Stats.Candidates != 0 || len(res.Solutions) != 0 {
				t.Errorf("%s/%s: work done despite pre-cancelled context: %+v", kind, exec, res.Stats)
			}
		}
	}
}

// TestCancelMidRun: a short deadline interrupts a pathological
// (unfiltered cross-product) execution mid-run on every executor and
// every backend. The full search takes many seconds; the executors must
// come back around the deadline with the Cancelled flag and a partial
// result instead.
func TestCancelMidRun(t *testing.T) {
	for _, kind := range allKinds {
		store, params := heavyFixture(t, kind)
		plan, err := Compile(Smuggler(), store)
		if err != nil {
			t.Fatal(err)
		}
		for _, exec := range executors {
			ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
			start := time.Now()
			res := runExecutor(t, exec, ctx, plan, store, params, slowOptions)
			elapsed := time.Since(start)
			cancel()
			if !res.Stats.Cancelled {
				t.Errorf("%s/%s: Cancelled not set (finished in %v with %d candidates?)",
					kind, exec, elapsed, res.Stats.Candidates)
			}
			// The bound must actually bind: far below the full search's
			// runtime, with head-room for slow CI machines.
			if elapsed > 5*time.Second {
				t.Errorf("%s/%s: run took %v after a 25ms deadline", kind, exec, elapsed)
			}
		}
	}
}

// TestCancelFromStreamYield cancels deterministically mid-run: the
// yield callback cancels the context after the first solution, so the
// stream must stop with Cancelled set and exactly one solution seen.
func TestCancelFromStreamYield(t *testing.T) {
	for _, kind := range allKinds {
		store, params := smugglerFixture(t, kind, workload.MapConfig{Seed: 42})
		plan, err := Compile(Smuggler(), store)
		if err != nil {
			t.Fatal(err)
		}
		full, err := plan.Run(store, params, DefaultOptions)
		if err != nil {
			t.Fatal(err)
		}
		if len(full.Solutions) < 2 {
			t.Fatalf("%s: fixture has %d solutions, need ≥ 2", kind, len(full.Solutions))
		}
		ctx, cancel := context.WithCancel(context.Background())
		seen := 0
		stats, err := plan.RunStream(ctx, store, params, DefaultOptions, 1, func(Solution) bool {
			seen++
			cancel()
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if !stats.Cancelled {
			t.Errorf("%s: Cancelled not set after cancel from yield", kind)
		}
		if seen != 1 {
			t.Errorf("%s: %d solutions streamed after immediate cancel", kind, seen)
		}
		if stats.Candidates >= full.Stats.Candidates {
			t.Errorf("%s: cancellation examined all %d candidates", kind, stats.Candidates)
		}
	}
}

// TestStreamYieldFalseStopsAllWorkers: a consumer stop is run-wide.
// With four workers, a yield that returns false on the first solution is
// called exactly once — no other worker lends it another tuple — and the
// run comes back without the Truncated/Cancelled flags.
func TestStreamYieldFalseStopsAllWorkers(t *testing.T) {
	for _, kind := range allKinds {
		store, params := smugglerFixture(t, kind, workload.MapConfig{Seed: 42})
		plan, err := Compile(Smuggler(), store)
		if err != nil {
			t.Fatal(err)
		}
		calls := 0 // the run lends one solution at a time, so no lock is needed
		stats, err := plan.RunStream(context.Background(), store, params, DefaultOptions, 4, func(Solution) bool {
			calls++
			time.Sleep(2 * time.Millisecond) // let the other workers queue up behind the stop
			return false
		})
		if err != nil {
			t.Fatal(err)
		}
		if calls != 1 {
			t.Errorf("%s: yield called %d times after returning false", kind, calls)
		}
		if stats.Truncated || stats.Cancelled {
			t.Errorf("%s: consumer stop must not set Truncated/Cancelled: %+v", kind, stats)
		}
	}
}

// TestLimitShortCircuits: Options.Limit caps the solution count, flags
// the run Truncated, and provably stops the search early (fewer
// candidates examined than the unbounded run) on every executor.
func TestLimitShortCircuits(t *testing.T) {
	store, params := smugglerFixture(t, spatialdb.RTree, workload.MapConfig{Seed: 42})
	plan, err := Compile(Smuggler(), store)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, exec := range executors {
		full := runExecutor(t, exec, ctx, plan, store, params, DefaultOptions)
		if len(full.Solutions) < 2 {
			t.Fatalf("%s: fixture has %d solutions, need ≥ 2", exec, len(full.Solutions))
		}
		if full.Stats.Truncated || full.Stats.Cancelled {
			t.Errorf("%s: unbounded run flagged %+v", exec, full.Stats)
		}
		opts := DefaultOptions
		opts.Limit = 1
		lim := runExecutor(t, exec, ctx, plan, store, params, opts)
		if len(lim.Solutions) != 1 || lim.Stats.Solutions != 1 {
			t.Errorf("%s: limit 1 returned %d solutions (stats %d)",
				exec, len(lim.Solutions), lim.Stats.Solutions)
		}
		if !lim.Stats.Truncated {
			t.Errorf("%s: Truncated not set at the limit", exec)
		}
		if lim.Stats.Cancelled {
			t.Errorf("%s: Cancelled set without cancellation", exec)
		}
		if lim.Stats.Candidates >= full.Stats.Candidates {
			t.Errorf("%s: limit did not shrink the search: %d vs %d candidates",
				exec, lim.Stats.Candidates, full.Stats.Candidates)
		}
	}
}

// TestLimitAcrossBackends: the limit contract (count, flag) holds on
// every index backend for the optimized executors.
func TestLimitAcrossBackends(t *testing.T) {
	for _, kind := range allKinds {
		store, params := smugglerFixture(t, kind, workload.MapConfig{Seed: 42})
		plan, err := Compile(Smuggler(), store)
		if err != nil {
			t.Fatal(err)
		}
		opts := DefaultOptions
		opts.Limit = 1
		for _, exec := range executors {
			res := runExecutor(t, exec, context.Background(), plan, store, params, opts)
			if len(res.Solutions) != 1 || !res.Stats.Truncated {
				t.Errorf("%s/%s: limit 1 → %d solutions, truncated=%v",
					kind, exec, len(res.Solutions), res.Stats.Truncated)
			}
		}
	}
}

// TestTimeoutFreesReadGuard is the wedged-store regression: a writer
// blocked behind a pathological query must proceed as soon as the
// query's deadline expires, instead of waiting for the full search.
func TestTimeoutFreesReadGuard(t *testing.T) {
	store, params := heavyFixture(t, spatialdb.RTree)
	plan, err := Compile(Smuggler(), store)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()

	queryDone := make(chan *Result, 1)
	go func() {
		res, err := plan.RunCtx(ctx, store, params, slowOptions)
		if err != nil {
			t.Error(err)
		}
		queryDone <- res
	}()
	// Give the query a moment to take the read guard, then write. The
	// Insert blocks on the store's write lock until the guard is freed.
	time.Sleep(5 * time.Millisecond)
	writerDone := make(chan struct{})
	go func() {
		store.MustInsert("towns", "late-writer", region.FromBox(store.Universe()))
		close(writerDone)
	}()
	select {
	case <-writerDone:
	case <-time.After(10 * time.Second):
		t.Fatal("writer still blocked 10s after the query deadline: read guard not freed")
	}
	res := <-queryDone
	if !res.Stats.Cancelled {
		t.Errorf("query not flagged Cancelled: %+v", res.Stats)
	}
}

// TestRunStreamMatchesRun: the streaming executor yields exactly the
// buffered executor's solution set, in the same DFS order, and an
// early-stopping consumer ends the run without flags.
func TestRunStreamMatchesRun(t *testing.T) {
	store, params := smugglerFixture(t, spatialdb.RTree, workload.MapConfig{Seed: 42})
	plan, err := Compile(Smuggler(), store)
	if err != nil {
		t.Fatal(err)
	}
	full, err := plan.Run(store, params, DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	var streamed []Solution
	stats, err := plan.RunStream(context.Background(), store, params, DefaultOptions, 1, func(s Solution) bool {
		streamed = append(streamed, s.Clone()) // s is lent for the call only
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(full.Solutions) {
		t.Fatalf("stream yielded %d solutions, Run found %d", len(streamed), len(full.Solutions))
	}
	for i := range streamed {
		for j, o := range streamed[i].Objects {
			if o.ID != full.Solutions[i].Objects[j].ID {
				t.Fatalf("stream order differs from Run at solution %d", i)
			}
		}
	}
	if stats.Candidates != full.Stats.Candidates || stats.Solutions != full.Stats.Solutions {
		t.Errorf("stream stats differ: %+v vs %+v", stats, full.Stats)
	}

	// Consumer stop: yield false after the first solution.
	seen := 0
	stats, err = plan.RunStream(context.Background(), store, params, DefaultOptions, 1, func(Solution) bool {
		seen++
		return false
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != 1 {
		t.Errorf("yield-false consumer saw %d solutions", seen)
	}
	if stats.Truncated || stats.Cancelled {
		t.Errorf("consumer stop must not set Truncated/Cancelled: %+v", stats)
	}
}

// TestLimitEqualsSolutionsStillSound: limits larger than the solution
// count change nothing (no flags, full set).
func TestLimitOverSolutionCount(t *testing.T) {
	store, params := smugglerFixture(t, spatialdb.RTree, workload.MapConfig{Seed: 42})
	plan, err := Compile(Smuggler(), store)
	if err != nil {
		t.Fatal(err)
	}
	full, err := plan.Run(store, params, DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions
	opts.Limit = len(full.Solutions) + 100
	for _, exec := range executors {
		res := runExecutor(t, exec, context.Background(), plan, store, params, opts)
		if len(res.Solutions) != len(full.Solutions) {
			t.Errorf("%s: over-limit changed the solution count: %d vs %d",
				exec, len(res.Solutions), len(full.Solutions))
		}
		if res.Stats.Truncated {
			t.Errorf("%s: Truncated set though nothing was dropped", exec)
		}
	}
}
