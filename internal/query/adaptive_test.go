package query

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/bbox"
	"repro/internal/boolalg"
	"repro/internal/formula"
	"repro/internal/race"
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

	got := SuggestOrder(q, store, nil)
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
	staticPlan, err := Compile(SuggestOrder(q, store, params), store)
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

// permutations returns all permutations of 0..n-1 in the order a
// swap-based generator meets them — the order permRank ranks.
func permutations(n int) [][]int {
	cur := make([]int, n)
	for i := range cur {
		cur[i] = i
	}
	var out [][]int
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for i := k; i < n; i++ {
			cur[k], cur[i] = cur[i], cur[k]
			rec(k + 1)
			cur[k], cur[i] = cur[i], cur[k]
		}
	}
	rec(0)
	return out
}

func TestPermRankMatchesEnumeration(t *testing.T) {
	for n := 0; n <= maxAdaptivePermute; n++ {
		for r, perm := range permutations(n) {
			if got := permRank(perm); got != r {
				t.Fatalf("permRank(%v) = %d, want %d", perm, got, r)
			}
		}
	}
}

// referenceAdaptive is CompileAdaptive the brute-force way: Compile each
// order of permutations(n) from scratch, cost it with estimatePlanCost or
// a fresh Tuner observation, and keep the earliest minimum. It also
// returns every compiled order's cost.
func referenceAdaptive(q *Query, store *spatialdb.Store, opts AdaptiveOptions) (best *Plan, costs []float64, feedbackUsed int, err error) {
	epoch := opts.Epoch
	if epoch == 0 {
		epoch = store.Epoch()
	}
	var observed map[string]Observation
	if opts.Tuner != nil {
		observed = opts.Tuner.Lookup(opts.TunerKey)
	}
	paramBox := paramBoxes(q, store, opts.Params)
	bestCost := math.Inf(1)
	var firstErr error
	for _, perm := range permutations(len(q.Retrieve)) {
		cand := &Query{Sys: q.Sys}
		for _, i := range perm {
			cand.Retrieve = append(cand.Retrieve, q.Retrieve[i])
		}
		plan, err := Compile(cand, store)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		plan.outPos = perm
		cost := estimatePlanCost(plan, store, paramBox)
		if o, ok := observed[plan.OrderKey()]; ok && epoch >= o.Epoch && epoch-o.Epoch <= DefaultStaleEpochs {
			cost = float64(o.Candidates)
			feedbackUsed++
		}
		costs = append(costs, cost)
		if cost < bestCost {
			best, bestCost = plan, cost
		}
	}
	if best == nil {
		return nil, costs, 0, firstErr
	}
	return best, costs, feedbackUsed, nil
}

// checkMatchesReference compiles q both ways and fails the test on any
// observable difference. It returns the reference's per-order costs.
func checkMatchesReference(t *testing.T, name string, q *Query, store *spatialdb.Store, opts AdaptiveOptions) []float64 {
	t.Helper()
	want, costs, feedbackUsed, wantErr := referenceAdaptive(q, store, opts)
	got, err := CompileAdaptive(q, store, opts)
	if err != nil || wantErr != nil {
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Errorf("%s: error %v, reference %v", name, err, wantErr)
		}
		return costs
	}
	if got.OrderKey() != want.OrderKey() {
		t.Errorf("%s: order %s, reference %s (costs %v)", name, got.OrderKey(), want.OrderKey(), costs)
	}
	if g, w := fmt.Sprint(got.Bindings()), fmt.Sprint(want.Bindings()); g != w {
		t.Errorf("%s: Bindings() %s, reference %s", name, g, w)
	}
	if g, w := got.Explain(), want.Explain(); g != w {
		t.Errorf("%s: Explain()\n%s\nreference\n%s", name, g, w)
	}
	if g, w := got.Adaptive.Reordered, want.OrderKey() != orderKey(q); g != w {
		t.Errorf("%s: Reordered %v, reference %v", name, g, w)
	}
	if got.Adaptive.FeedbackUsed != feedbackUsed {
		t.Errorf("%s: FeedbackUsed %d, reference %d", name, got.Adaptive.FeedbackUsed, feedbackUsed)
	}
	for i, sp := range got.Steps {
		if sp.lower == nil || sp.upper == nil {
			t.Errorf("%s: step %d returned without its box programs", name, i)
		}
	}
	return costs
}

// CorpusCase is one golden-corpus query, parsed, with its fixture's store
// and parameters.
type CorpusCase struct {
	Name   string
	Query  *Query
	Store  *spatialdb.Store
	Params map[string]*region.Region
}

// GoldenCorpus loads the golden corpus. The corpus and the query parser
// import this package, so only the external test package can load them;
// corpus_test.go sets this hook.
var GoldenCorpus func() ([]CorpusCase, error)

// The one-pass planner must return exactly the plan the per-order
// brute force returns — same order, tuple order, solved form, range
// templates and feedback count — on the golden corpus, on random 1–5
// variable systems, with a fresh Tuner observation in play and when two
// orders tie on cost.
func TestCompileAdaptiveMatchesPerOrderCompile(t *testing.T) {
	corpus, err := GoldenCorpus()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range corpus {
		checkMatchesReference(t, c.Name, c.Query, c.Store, AdaptiveOptions{Params: c.Params})
	}

	universe := bbox.Rect(0, 0, 64, 64)
	for n := 1; n <= maxAdaptivePermute; n++ {
		for trial := 0; trial < 24-4*n; trial++ {
			rng := workload.NewRNG(uint64(100*n + trial))
			q := randSystemN(rng, n)
			store := spatialdb.NewStore(universe, spatialdb.RTree)
			for _, b := range q.Retrieve {
				store.Layer(b.Layer)
				for i := 0; i < rng.IntN(6); i++ { // sometimes empty
					store.MustInsert(b.Layer, fmt.Sprintf("%s%d", b.Var, i), workload.RandRegion(rng, universe, 2))
				}
			}
			params := map[string]*region.Region{"C": workload.RandRegion(rng, universe, 2)}
			checkMatchesReference(t, fmt.Sprintf("random n=%d trial %d\n%s", n, trial, q.Sys), q, store, AdaptiveOptions{Params: params})
		}
	}

	store, params := smugglerFixture(t, spatialdb.RTree, workload.MapConfig{Seed: 7})
	q := Smuggler()
	epoch := store.Epoch()

	// A fresh observation steers the choice; the same one judged stale
	// does not.
	tuner := NewTuner(8)
	tuner.Observe("fresh", "R→B→T", epoch, Stats{Candidates: 1, Solutions: 1})
	opts := AdaptiveOptions{Params: params, Tuner: tuner, TunerKey: "fresh", Epoch: epoch}
	checkMatchesReference(t, "fresh observation", q, store, opts)
	opts.Epoch = epoch + DefaultStaleEpochs + 1
	checkMatchesReference(t, "stale observation", q, store, opts)

	// B→R→T and B→T→R tie at zero observed candidates. The earliest in
	// permutations(3) wins: B→R→T, which a lexicographic enumeration
	// would place after B→T→R.
	tuner.Observe("tie", "B→T→R", epoch, Stats{})
	tuner.Observe("tie", "B→R→T", epoch, Stats{})
	opts = AdaptiveOptions{Params: params, Tuner: tuner, TunerKey: "tie", Epoch: epoch}
	costs := checkMatchesReference(t, "tie", q, store, opts)
	if ties := countMin(costs); ties < 2 {
		t.Fatalf("tie fixture has %d orders at the minimum cost: %v", ties, costs)
	}
	plan, err := CompileAdaptive(q, store, opts)
	if err != nil {
		t.Fatal(err)
	}
	if plan.OrderKey() != "B→R→T" {
		t.Fatalf("tie: chose %s, want B→R→T", plan.OrderKey())
	}
}

func countMin(costs []float64) int {
	n, lo := 0, math.Inf(1)
	for _, c := range costs {
		switch {
		case c < lo:
			n, lo = 1, c
		case c == lo:
			n++
		}
	}
	return n
}

// CompileAdaptive surfaces the same compile errors Compile does: when
// every order fails, the error Compile gives for the query's own order —
// the first order in permutations(n) — with Compile's wrapping.
func TestCompileAdaptiveErrors(t *testing.T) {
	store := spatialdb.NewStore(bbox.Rect(0, 0, 100, 100), spatialdb.RTree)
	store.MustInsert("towns", "t", region.FromBox(bbox.Rect(1, 1, 2, 2)))
	build := func(bind func(q *Query)) *Query {
		q := New()
		q.Sys.Subset(q.Sys.Var("x"), q.Sys.Var("C"))
		q.Sys.Overlap(q.Sys.Var("y"), q.Sys.Var("x"))
		bind(q)
		return q
	}
	cases := []struct {
		name string
		q    *Query
		want string
	}{
		{"unknown layer", build(func(q *Query) { q.From("x", "nowhere") }), `query: layer "nowhere" does not exist`},
		// z is in no constraint either; the query's own order meets y first.
		{"unknown layer of three", build(func(q *Query) { q.From("x", "towns").From("y", "nowhere").From("z", "towns") }),
			`query: layer "nowhere" does not exist`},
		{"variable in no constraint", build(func(q *Query) { q.From("z", "towns").From("y", "nowhere") }),
			`query: retrieval variable "z" not used in any constraint`},
		{"variable retrieved twice", build(func(q *Query) { q.From("y", "towns").From("x", "towns").From("y", "towns") }),
			`query: variable "y" retrieved twice`},
		{"no retrieval variables", New(), "query: no retrieval variables"},
	}
	for _, c := range cases {
		_, err := CompileAdaptive(c.q, store, AdaptiveOptions{})
		if err == nil || err.Error() != c.want {
			t.Errorf("%s: error %v, want %q", c.name, err, c.want)
		}
		checkMatchesReference(t, c.name, c.q, store, AdaptiveOptions{})
	}
}

// coldShapeQuery is a 4-variable query in the E10 shape the query_cold
// benchmark compiles: a containment/overlap chain over the smuggler
// layers, overlaps with the parameter C and one disequation.
func coldShapeQuery() *Query {
	q := New()
	t0, b1, r2, b3, c := q.Sys.Var("T0"), q.Sys.Var("B1"), q.Sys.Var("R2"), q.Sys.Var("B3"), q.Sys.Var("C")
	q.Sys.Subset(t0, b1).Overlap(b1, r2).Subset(r2, b3).Overlap(t0, c).Overlap(r2, c).NotEqual(b1, b3)
	return q.From("T0", "towns").From("B1", "states").From("R2", "roads").From("B3", "states")
}

// TestCompileAdaptiveAllocs pins the planner's allocation floor. Compiling
// each of the 24 orders from scratch took 16,720 allocations on this
// fixture, and one elimination per order suffix (64 of them) about 5,600;
// one elimination per (set, binding) pair (32) with prefix-shared costing
// and only the winner's programs lowered takes about 3,740.
func TestCompileAdaptiveAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation floors are pinned on the normal build")
	}
	store, params := smugglerFixture(t, spatialdb.RTree, workload.MapConfig{Seed: 3, Towns: 4, Interior: 4, Roads: 6})
	q := coldShapeQuery()
	opts := AdaptiveOptions{Params: params}
	if _, err := CompileAdaptive(q, store, opts); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := CompileAdaptive(q, store, opts); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 4200
	if allocs > budget {
		t.Fatalf("CompileAdaptive allocates %v per 4-variable compile, want <= %d", allocs, budget)
	}
	t.Logf("CompileAdaptive: %v allocations per 4-variable compile", allocs)
}

// estimatePlanCost is the per-order form of CompileAdaptive's cost walk,
// the reference its prefix-shared arithmetic must reproduce: it walks a
// plan's steps once under the store's read guard, instantiating each range
// template over the representative environment, joining in the box of the
// step's solved lower bound as the executor does, and asking the layer's
// histograms for the expected match count, and returns the
// cumulative-width cost. A missing layer costs +inf — it can only fail at
// run time, so no order that reaches it early should ever win.
func estimatePlanCost(plan *Plan, store *spatialdb.Store, paramBox []bbox.Box) float64 {
	store.RLock()
	defer store.RUnlock()
	k := store.K()
	alg := region.NewAlgebra(store.Universe())
	envBox := append([]bbox.Box(nil), paramBox...)
	cost, width := 0.0, 1.0
	for i := range plan.Steps {
		sp := &plan.Steps[i]
		l, ok := store.LayerIfExists(sp.Layer)
		if !ok {
			return math.Inf(1)
		}
		ds := l.DataStats()
		spec, satisfiable := sp.Spec(k, envBox)
		if !satisfiable {
			return cost // statically dead prefix: deeper steps never run
		}

		// The solved lower bound, each bound variable the region of its
		// representative box and a complemented retrieval variable taken
		// as 1: every survivor's box contains its bounding box within the
		// universe.
		lower := bbox.Empty(k)
		if f := plan.Form.Steps[i].Lower; !f.IsConst(false) {
			env := make([]boolalg.Element, len(envBox))
			for v, b := range envBox {
				if !b.IsEmpty() {
					env[v] = region.FromBox(b)
				}
			}
			for _, b := range plan.Query.Retrieve {
				v, _ := plan.Query.Sys.Vars.Lookup(b.Var)
				f = substituteNot(f, v, formula.One())
			}
			alg.LowerBoxInto(formula.Eval(f, alg, env), &lower) // false leaves it empty
		}
		spec.Lower = spec.Lower.Join(lower)
		if spec.Unsatisfiable() {
			return cost // the lower bound's box misses the upper bound
		}
		est := ds.EstimateSpec(spec)
		if est == 0 {
			return cost // estimated dead end: deeper steps cost ~nothing
		}
		width *= est
		cost += width

		// Representative box for this variable at deeper steps: the mean
		// stored box, narrowed to the step's upper bound when they meet
		// (survivors of the range query are contained in Upper), joined
		// with the lower bound's box (they contain it).
		rep := ds.MeanBox()
		if !spec.Upper.IsEmpty() && !spec.Upper.IsUniv() {
			if m := rep.Meet(spec.Upper); !m.IsEmpty() {
				rep = m
			} else {
				rep = spec.Upper
			}
		}
		envBox[sp.Var] = rep.Join(lower)
	}
	return cost
}

// substituteNot returns f with every complemented occurrence of variable
// v, ¬v, replaced by g.
func substituteNot(f *formula.Formula, v int, g *formula.Formula) *formula.Formula {
	switch f.Kind() {
	case formula.KindNot:
		if x := f.Left(); x.Kind() == formula.KindVar && x.VarIndex() == v {
			return g
		}
		return formula.Not(substituteNot(f.Left(), v, g))
	case formula.KindAnd:
		return formula.And(substituteNot(f.Left(), v, g), substituteNot(f.Right(), v, g))
	case formula.KindOr:
		return formula.Or(substituteNot(f.Left(), v, g), substituteNot(f.Right(), v, g))
	}
	return f
}
