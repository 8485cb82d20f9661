package query

import (
	"fmt"
	"testing"

	"repro/internal/bbox"
	"repro/internal/region"
	"repro/internal/spatialdb"
	"repro/internal/workload"
)

// Regression: SuggestOrder used to plan a missing layer as size 0, the
// most attractive size possible, silently front-loading a step that can
// only fail. It must rank as infinitely large instead.
func TestSuggestOrderMissingLayerNotAttractive(t *testing.T) {
	store := spatialdb.NewStore(bbox.Rect(0, 0, 100, 100), spatialdb.RTree)
	store.MustInsert("towns", "a", region.FromBoxes(2, bbox.Rect(1, 1, 2, 2)))
	store.MustInsert("towns", "b", region.FromBoxes(2, bbox.Rect(5, 5, 6, 6)))

	q := New()
	c := q.Sys.Var("C")
	x := q.Sys.Var("x")
	y := q.Sys.Var("y")
	q.Sys.Subset(x, c)
	q.Sys.Subset(y, c)
	q.From("x", "towns").From("y", "ghost")

	got := SuggestOrder(q, store)
	if got.Retrieve[0].Layer != "towns" {
		t.Fatalf("missing layer %q ordered before existing %q: %v",
			"ghost", "towns", got.Retrieve)
	}
}

// solutionSet renders a result's solutions as an order- and
// tuple-position-insensitive multiset: each tuple keyed by variable name.
func solutionSet(bindings []Binding, sols []Solution) map[string]int {
	set := map[string]int{}
	for _, s := range sols {
		pairs := map[string]int64{}
		for i, o := range s.Objects {
			pairs[bindings[i].Var] = o.ID
		}
		key := ""
		for _, v := range []string{"T", "R", "B"} {
			if id, ok := pairs[v]; ok {
				key += fmt.Sprintf("%s=%d;", v, id)
			}
		}
		set[key]++
	}
	return set
}

// The adaptive plan must return exactly the solutions the naive executor
// and the statically ordered plan return, whatever order it picked.
func TestCompileAdaptiveResultsMatchNaiveAndStatic(t *testing.T) {
	store, params := smugglerFixture(t, spatialdb.RTree, workload.MapConfig{Seed: 7})
	q := Smuggler()

	naive, err := RunNaive(q, store, params)
	if err != nil {
		t.Fatal(err)
	}
	staticPlan, err := Compile(SuggestOrder(q, store), store)
	if err != nil {
		t.Fatal(err)
	}
	staticRes, err := staticPlan.Run(store, params, DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := CompileAdaptive(q, store, AdaptiveOptions{Params: params})
	if err != nil {
		t.Fatal(err)
	}
	if adaptive.Adaptive == nil {
		t.Fatal("adaptive plan carries no AdaptiveInfo")
	}
	adaptiveRes, err := adaptive.Run(store, params, DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}

	want := solutionSet(q.Retrieve, naive.Solutions)
	if got := solutionSet(staticPlan.Bindings(), staticRes.Solutions); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("static plan solutions = %v, naive = %v", got, want)
	}
	if got := solutionSet(adaptive.Bindings(), adaptiveRes.Solutions); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("adaptive plan (order %s) solutions = %v, naive = %v",
			adaptive.OrderKey(), got, want)
	}
	// Adaptive output tuples keep the caller's binding order: Bindings()
	// must equal the original query's, whatever order executed.
	for i, b := range adaptive.Bindings() {
		if b.Var != q.Retrieve[i].Var {
			t.Fatalf("Bindings()[%d] = %s, want %s", i, b.Var, q.Retrieve[i].Var)
		}
	}
}

// The histogram-costed order must avoid the worst permutation cold, and
// converge on the measured-best order once the tuner has seen each order
// run — the self-tuning loop repeated queries go through.
func TestCompileAdaptiveOrderNearBestAndConverges(t *testing.T) {
	store, params := smugglerFixture(t, spatialdb.RTree, workload.MapConfig{Seed: 42})
	base := Smuggler()

	tuner := NewTuner(8)
	epoch := store.Epoch()
	best, worst, bestOrder := -1, -1, ""
	for _, p := range permutations(3) {
		q := &Query{Sys: base.Sys}
		for _, i := range p {
			q.Retrieve = append(q.Retrieve, base.Retrieve[i])
		}
		res, err := CompileAndRun(q, store, params)
		if err != nil {
			t.Fatal(err)
		}
		tuner.Observe("smuggler", orderKey(q), epoch, res.Stats)
		if best < 0 || res.Stats.Candidates < best {
			best, bestOrder = res.Stats.Candidates, orderKey(q)
		}
		if res.Stats.Candidates > worst {
			worst = res.Stats.Candidates
		}
	}

	// Cold: histogram estimates alone. Deep-step estimates are approximate
	// (independence across axes, one representative box per bound
	// variable), so the cold choice need not be optimal — but it must not
	// be the worst order.
	cold, err := CompileAdaptive(base, store, AdaptiveOptions{Params: params})
	if err != nil {
		t.Fatal(err)
	}
	res, err := cold.Run(store, params, DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Candidates >= worst {
		t.Errorf("cold adaptive order %s examines %d candidates; worst is %d",
			cold.OrderKey(), res.Stats.Candidates, worst)
	}

	// Warm: with every order observed once, the planner must pick the
	// measured best.
	warm, err := CompileAdaptive(base, store, AdaptiveOptions{
		Params: params, Tuner: tuner, TunerKey: "smuggler", Epoch: epoch,
	})
	if err != nil {
		t.Fatal(err)
	}
	if warm.OrderKey() != bestOrder {
		t.Errorf("warm adaptive chose %s; measured best is %s (%d candidates)",
			warm.OrderKey(), bestOrder, best)
	}
	wres, err := warm.Run(store, params, DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	if wres.Stats.Candidates != best {
		t.Errorf("warm adaptive examines %d candidates; best is %d", wres.Stats.Candidates, best)
	}
}

// A fresh Tuner observation overrides the histogram estimate; a stale one
// (too many epochs old) is ignored.
func TestTunerFeedbackOverridesEstimate(t *testing.T) {
	store, params := smugglerFixture(t, spatialdb.RTree, workload.MapConfig{Seed: 7})
	q := Smuggler()

	baseline, err := CompileAdaptive(q, store, AdaptiveOptions{Params: params})
	if err != nil {
		t.Fatal(err)
	}
	// Claim some other order ran essentially for free.
	other := "B→R→T"
	if baseline.OrderKey() == other {
		other = "R→B→T"
	}
	tuner := NewTuner(8)
	epoch := store.Epoch()
	tuner.Observe("q1", other, epoch, Stats{Candidates: 1, Solutions: 1})

	opts := AdaptiveOptions{Params: params, Tuner: tuner, TunerKey: "q1", Epoch: epoch}
	plan, err := CompileAdaptive(q, store, opts)
	if err != nil {
		t.Fatal(err)
	}
	if plan.OrderKey() != other {
		t.Errorf("fresh observation ignored: chose %s, observed-cheap order is %s",
			plan.OrderKey(), other)
	}
	if plan.Adaptive.FeedbackUsed == 0 {
		t.Error("AdaptiveInfo.FeedbackUsed = 0 with a fresh observation in play")
	}

	// Same observation judged from far in the future: stale, back to the
	// histogram choice.
	opts.Epoch = epoch + DefaultStaleEpochs + 1
	plan, err = CompileAdaptive(q, store, opts)
	if err != nil {
		t.Fatal(err)
	}
	if plan.OrderKey() != baseline.OrderKey() {
		t.Errorf("stale observation still steered the plan: chose %s, baseline %s",
			plan.OrderKey(), baseline.OrderKey())
	}
}

func TestTunerSkipsPartialRunsAndEvicts(t *testing.T) {
	tuner := NewTuner(2)
	tuner.Observe("a", "x→y", 1, Stats{Candidates: 10, Truncated: true})
	tuner.Observe("a", "x→y", 1, Stats{Candidates: 10, Cancelled: true})
	tuner.Observe("a", "x→y", 1, Stats{Candidates: 10, GroundFailed: true})
	if tuner.Len() != 0 {
		t.Fatalf("partial runs recorded: Len = %d", tuner.Len())
	}
	tuner.Observe("a", "x→y", 1, Stats{Candidates: 10})
	tuner.Observe("b", "x→y", 1, Stats{Candidates: 10})
	tuner.Observe("c", "x→y", 1, Stats{Candidates: 10})
	if tuner.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (FIFO capacity)", tuner.Len())
	}
	if tuner.Lookup("a") != nil {
		t.Error("oldest key not evicted")
	}
	if tuner.Lookup("c") == nil {
		t.Error("newest key missing")
	}
}

// A plan is cached by text and re-run with whatever parameters later
// requests bind, so nothing about it may be sized by the first request's.
// Compiled against a near-universe window and then run with a narrow one,
// `find P in parcels given W where P <= W` must cost what the narrow
// window's matches cost through the layer's index, not a walk over the
// layer.
func TestCompileAdaptivePlanCostFollowsRunParams(t *testing.T) {
	uni := bbox.Rect(0, 0, 1000, 1000)
	store := spatialdb.NewStore(uni, spatialdb.RTree)
	const side = 50 // 2,500 parcels on a 20-unit grid
	for i := 0; i < side*side; i++ {
		x, y := float64(i%side)*20, float64(i/side)*20
		store.MustInsert("parcels", fmt.Sprintf("p%d", i), region.FromBox(bbox.Rect(x+1, y+1, x+19, y+19)))
	}
	q := New()
	q.Sys.Subset(q.Sys.Var("P"), q.Sys.Var("W"))
	q.From("P", "parcels")

	wide := map[string]*region.Region{"W": region.FromBox(bbox.Rect(5, 5, 995, 995))}
	plan, err := CompileAdaptive(q, store, AdaptiveOptions{Params: wide})
	if err != nil {
		t.Fatal(err)
	}
	res, err := plan.Run(store, wide, DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Solutions < side*side*3/10 {
		t.Fatalf("wide window matched %d of %d parcels; the fixture needs ≥ 30%%", res.Stats.Solutions, side*side)
	}

	narrow := map[string]*region.Region{"W": region.FromBox(bbox.Rect(400, 400, 460, 460))}
	res, err = plan.Run(store, narrow, DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	const want = 9 // the 3×3 parcels inside the narrow window
	if res.Stats.Solutions != want {
		t.Fatalf("narrow window: %d solutions, want %d", res.Stats.Solutions, want)
	}
	if res.Stats.DB.Scanned > 8*want || res.Stats.Candidates > 8*want {
		t.Errorf("narrow run on the plan compiled for the wide window scanned %d objects and examined %d candidates for %d matches (layer holds %d)",
			res.Stats.DB.Scanned, res.Stats.Candidates, want, side*side)
	}
}

// CompileAdaptive surfaces the same compile errors Compile does.
func TestCompileAdaptiveErrors(t *testing.T) {
	store := spatialdb.NewStore(bbox.Rect(0, 0, 100, 100), spatialdb.RTree)
	q := New()
	c := q.Sys.Var("C")
	x := q.Sys.Var("x")
	q.Sys.Subset(x, c)
	q.From("x", "nowhere")
	if _, err := CompileAdaptive(q, store, AdaptiveOptions{}); err == nil {
		t.Fatal("missing layer compiled without error")
	}
	empty := New()
	if _, err := CompileAdaptive(empty, store, AdaptiveOptions{}); err == nil {
		t.Fatal("query without retrieval variables compiled without error")
	}
}
