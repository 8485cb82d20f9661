package query

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/bbox"
	"repro/internal/race"
	"repro/internal/region"
	"repro/internal/spatialdb"
)

// These tests pin the allocation-free per-candidate path against
// backsliding: they are the hard floors.

// allocTestSetup builds a store whose layer holds n small objects inside
// the bounding box of an L-shaped parameter region C but outside C itself:
// every object passes the index's bounding-box filter and is rejected by
// the exact solved-form filter, exercising both per-candidate paths.
func allocTestSetup(n int) (*spatialdb.Store, *Plan, map[string]*region.Region) {
	store := spatialdb.NewStore(bbox.Rect(0, 0, 100, 100), spatialdb.RTree)
	for i := 0; i < n; i++ {
		x := 15 + float64(i%28)
		y := 15 + float64((i/28)%28)
		store.MustInsert("objs", fmt.Sprintf("o%d", i),
			region.FromBox(bbox.Rect(x, y, x+0.5, y+0.5)))
	}
	q := New()
	x, c := q.Sys.Var("x"), q.Sys.Var("C")
	q.Sys.Subset(x, c)
	q.From("x", "objs")
	plan, err := Compile(q, store)
	if err != nil {
		panic(err)
	}
	// C is an L: its bounding box [0,0]x[50,50] covers every object, the
	// region itself covers none.
	params := map[string]*region.Region{"C": region.FromBoxes(2,
		bbox.Rect(0, 0, 50, 10), bbox.Rect(0, 0, 10, 50))}
	return store, plan, params
}

// TestSpecIntoAllocFree pins SpecInto (the executor's form of
// StepBoxPlan.Spec) at zero steady-state allocations.
func TestSpecIntoAllocFree(t *testing.T) {
	_, plan, params := allocTestSetup(4)
	envBox := make([]bbox.Box, plan.Query.Sys.Vars.Len())
	v, _ := plan.Query.Sys.Vars.Lookup("C")
	envBox[v] = params["C"].BoundingBox()
	var scr specScratch
	if _, ok := plan.Steps[0].SpecInto(2, envBox, &scr); !ok {
		t.Fatal("spec unexpectedly unsatisfiable")
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, ok := plan.Steps[0].SpecInto(2, envBox, &scr); !ok {
			t.Fatal("spec unexpectedly unsatisfiable")
		}
	})
	if allocs != 0 {
		t.Fatalf("SpecInto allocates %v per call with a warm scratch, want 0", allocs)
	}
}

// TestRunCtxCandidateLoopAllocs pins the full executor: a run examining
// ~500 candidates must stay within a small fixed allocation budget — the
// per-run setup (algebra, frame, scratch, stats) — proving the candidate
// loop itself is allocation-free. Before this PR the same run cost ~25
// allocations per candidate.
func TestRunCtxCandidateLoopAllocs(t *testing.T) {
	store, plan, params := allocTestSetup(500)
	run := func() *Result {
		res, err := plan.RunCtx(context.Background(), store, params, DefaultOptions)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run()
	if res.Stats.Candidates < 500 || res.Stats.ExactRejects < 500 || len(res.Solutions) != 0 {
		t.Fatalf("setup does not exercise the loop: %+v", res.Stats)
	}
	allocs := testing.AllocsPerRun(20, func() { run() })
	// ~51 fixed allocations per run measured at commit time; the bound
	// leaves 2x headroom while still failing if per-candidate work ever
	// allocates again (500 candidates x 1 alloc would be ~4x over).
	const budget = 128
	if allocs > budget {
		t.Fatalf("RunCtx allocates %v per run over %d candidates, want <= %d",
			allocs, res.Stats.Candidates, budget)
	}
}

// TestScanExactLoopAllocs covers the other ablation: no index, exact
// filter only — the fast Leq refutation must keep the scan allocation-free
// per candidate too.
func TestScanExactLoopAllocs(t *testing.T) {
	store, plan, params := allocTestSetup(500)
	opts := Options{UseIndex: false, UseExact: true}
	run := func() {
		if _, err := plan.RunCtx(context.Background(), store, params, opts); err != nil {
			t.Fatal(err)
		}
	}
	run()
	allocs := testing.AllocsPerRun(20, func() { run() })
	const budget = 128
	if allocs > budget {
		t.Fatalf("scan+exact RunCtx allocates %v per run, want <= %d", allocs, budget)
	}
}

// acceptFixture builds a store in which every candidate of every step is
// a solution, at scale n: layer a holds n boxes inside the window W, b's
// i-th box overlaps exactly a's i-th, and c's i-th overlaps exactly b's
// i-th while sticking out of a's. The three plans (1, 2 and 3 steps; one
// `!=`, one `!<=`) therefore visit n candidates per step, evaluate n
// prefixes per inner step and emit n solutions — the accept path that
// TestRunCtxCandidateLoopAllocs, with its 500 rejects and no solution,
// never reaches.
func acceptFixture(t *testing.T, n int) (*spatialdb.Store, []*Plan, map[string]*region.Region) {
	t.Helper()
	width := float64(10*n + 10)
	store := spatialdb.NewStore(bbox.Rect(0, 0, width, 10), spatialdb.RTree)
	for i := 0; i < n; i++ {
		x := float64(10 * i)
		store.MustInsert("a", fmt.Sprintf("a%d", i), region.FromBox(bbox.Rect(x, 0, x+4, 4)))
		store.MustInsert("b", fmt.Sprintf("b%d", i), region.FromBox(bbox.Rect(x+1, 0, x+6, 4)))
		store.MustInsert("c", fmt.Sprintf("c%d", i), region.FromBox(bbox.Rect(x+5, 0, x+8, 4)))
	}
	var plans []*Plan
	for steps := 1; steps <= 3; steps++ {
		q := New().From("X", "a")
		x := q.Sys.Var("X")
		q.Sys.Subset(x, q.Sys.Var("W")) // X <= W
		if steps >= 2 {
			y := q.Sys.Var("Y")
			q.From("Y", "b").Sys.Overlap(x, y) // X & Y != 0
			if steps == 2 {
				q.Sys.NotEqual(x, y) // X != Y
			} else {
				z := q.Sys.Var("Z")
				q.From("Z", "c").Sys.Overlap(y, z).NotSubset(z, x) // Y & Z != 0; Z !<= X
			}
		}
		plan, err := Compile(q, store)
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, plan)
	}
	return store, plans, map[string]*region.Region{"W": region.FromBox(bbox.Rect(0, 0, width, 10))}
}

// TestAcceptPathAllocs pins the accept path: a RunStream pays a fixed
// allocation budget per run — the same at 40 and at 400 candidates,
// prefixes and solutions, serially and fanned out over two workers — and
// RunCtx adds at most 2 allocations per solution, the tuple that escapes
// into the Result (plus the amortised growth of the Result's slice).
func TestAcceptPathAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	const small, large = 40, 400
	workerCounts := []int{1, 2}
	// stream[w][steps-1] is the allocations of one RunStream with
	// workerCounts[w]; buffered[steps-1] those of one RunCtx.
	measure := func(n int) (stream [][]float64, buffered []float64) {
		store, plans, params := acceptFixture(t, n)
		stream = make([][]float64, len(workerCounts))
		for steps, plan := range plans {
			for w, workers := range workerCounts {
				found := 0 // the run lends one solution at a time
				runStream := func() {
					found = 0
					st, err := plan.RunStream(context.Background(), store, params, DefaultOptions, workers,
						func(Solution) bool { found++; return true })
					if err != nil || st.Candidates != (steps+1)*n || st.ExactRejects != 0 || st.FinalRejected != 0 {
						t.Fatalf("%d-step plan at n=%d, %d workers is not all-accept: %+v (err %v)", steps+1, n, workers, st, err)
					}
				}
				runStream()
				if found != n {
					t.Fatalf("%d-step plan at n=%d, %d workers found %d solutions, want %d", steps+1, n, workers, found, n)
				}
				// 100 runs: AllocsPerRun's switch to GOMAXPROCS(1) empties the
				// frame pool, and a parallel run's frames trade the gathering
				// role on the next run, so their one-off growth is amortised.
				stream[w] = append(stream[w], testing.AllocsPerRun(100, runStream))
			}
			buffered = append(buffered, testing.AllocsPerRun(20, func() {
				if _, err := plan.RunCtx(context.Background(), store, params, DefaultOptions); err != nil {
					t.Fatal(err)
				}
			}))
		}
		return stream, buffered
	}
	streamSmall, _ := measure(small)
	streamLarge, bufferedLarge := measure(large)
	t.Logf("RunStream allocs/run by workers %v at n=%d: %v, at n=%d: %v; RunCtx at n=%d: %v",
		workerCounts, small, streamSmall, large, streamLarge, large, bufferedLarge)
	// 13–14 fixed allocations per serial run measured at commit time
	// (algebra, parameter binding, layer resolution, execCtl), 3–4 more
	// with two workers (the shared fan state, its lend callback, the second
	// worker's goroutine); the budget leaves headroom for a pool emptied by
	// a GC cycle mid-measurement.
	const budget = 32
	for w, workers := range workerCounts {
		for i := range streamLarge[w] {
			if streamLarge[w][i] > budget || streamLarge[w][i] > streamSmall[w][i]+4 {
				t.Errorf("%d-step RunStream, %d workers: %v allocs per run at n=%d, %v at n=%d: want a fixed budget <= %d",
					i+1, workers, streamLarge[w][i], large, streamSmall[w][i], small, budget)
			}
		}
	}
	for i := range bufferedLarge {
		if perSolution := (bufferedLarge[i] - streamLarge[0][i]) / large; perSolution > 2 {
			t.Errorf("%d-step RunCtx: %.2f allocs per solution over RunStream, want <= 2", i+1, perSolution)
		}
	}
}
