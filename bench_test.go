package boolq

// The benchmark harness: one benchmark family per experiment of DESIGN.md
// §4 (E1–E11). Run with:
//
//	go test -bench=. -benchmem
//
// The absolute numbers depend on the machine; the shapes the paper
// predicts (naive ≫ optimized, exact-region filter ≫ bbox filter,
// compile-time growth with variable count, index ≪ scan) are asserted
// qualitatively by the tests in internal/experiments and reported in
// EXPERIMENTS.md.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/bbox"
	"repro/internal/bcf"
	"repro/internal/constraint"
	"repro/internal/formula"
	"repro/internal/lang"
	"repro/internal/query"
	"repro/internal/region"
	"repro/internal/rtree"
	"repro/internal/server"
	"repro/internal/spatialdb"
	"repro/internal/triangular"
	"repro/internal/wal"
	"repro/internal/workload"
	"repro/internal/zorder"
)

// ---- E1/E6: smuggler query, naive vs optimized, across map scales ----

func smugglerSetup(scale int) (*spatialdb.Store, map[string]*region.Region) {
	m := workload.GenMap(workload.MapConfig{
		Seed:  42,
		Towns: 12 * scale, Interior: 12 * scale, Roads: 30 * scale,
	})
	store := spatialdb.NewStore(m.Config.Universe, spatialdb.RTree)
	m.Populate(store)
	return store, map[string]*region.Region{"C": m.Country, "A": m.Area}
}

func BenchmarkE1SmugglerNaive(b *testing.B) {
	store, params := smugglerSetup(1)
	q := query.Smuggler()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := query.RunNaive(q, store, params); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1SmugglerOptimized(b *testing.B) {
	store, params := smugglerSetup(1)
	plan, err := query.Compile(query.Smuggler(), store)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.Run(store, params, query.DefaultOptions); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE6Pruning(b *testing.B) {
	for _, scale := range []int{1, 2, 4} {
		store, params := smugglerSetup(scale)
		q := query.Smuggler()
		plan, err := query.Compile(q, store)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("naive/scale-%d", scale), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := query.RunNaive(q, store, params); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("optimized/scale-%d", scale), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := plan.Run(store, params, query.DefaultOptions); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- E5: point-transform range query vs direct scan ----

func BenchmarkE5PointTransform(b *testing.B) {
	rng := workload.NewRNG(5)
	spec := bbox.RangeSpec{
		K: 2, Lower: bbox.Empty(2), Upper: bbox.Rect(100, 100, 400, 400),
		Overlaps: []bbox.Box{bbox.Rect(200, 200, 260, 260)},
	}
	for _, kind := range []spatialdb.IndexKind{spatialdb.Scan, spatialdb.PointRTree, spatialdb.Grid} {
		store := spatialdb.NewStore(bbox.Rect(0, 0, 1000, 1000), kind)
		for i := 0; i < 5000; i++ {
			x, y := rng.Range(0, 990), rng.Range(0, 990)
			store.MustInsert("objs", "", region.FromBox(bbox.Rect(x, y, x+5, y+5)))
		}
		layer := store.Layer("objs")
		b.Run(kind.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				n := 0
				layer.Search(spec, func(spatialdb.Object) bool {
					n++
					return true
				})
			}
		})
	}
}

// ---- E8: exact region filtering vs bounding-box functions ----

func BenchmarkE8FilterExact(b *testing.B) {
	store, params := smugglerSetup(2)
	plan, err := query.Compile(query.Smuggler(), store)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.Run(store, params, query.Options{UseIndex: false, UseExact: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE8FilterBBox(b *testing.B) {
	store, params := smugglerSetup(2)
	plan, err := query.Compile(query.Smuggler(), store)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.Run(store, params, query.Options{UseIndex: true, UseExact: false}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E9: overlay join — pipeline vs z-order vs nested loop ----

func joinSetup(n int) (*spatialdb.Store, []zorder.Item, []zorder.Item, []*region.Region, []*region.Region) {
	rng := workload.NewRNG(9)
	store := spatialdb.NewStore(bbox.Rect(0, 0, 1024, 1024), spatialdb.RTree)
	var as, bs []zorder.Item
	var aR, bR []*region.Region
	for i := 0; i < n; i++ {
		x, y := rng.Range(0, 1000), rng.Range(0, 1000)
		r := region.FromBox(bbox.Rect(x, y, x+10, y+10))
		o := store.MustInsert("as", "", r)
		as = append(as, zorder.Item{ID: o.ID, Box: o.Box})
		aR = append(aR, r)
		x, y = rng.Range(0, 1000), rng.Range(0, 1000)
		r = region.FromBox(bbox.Rect(x, y, x+10, y+10))
		o = store.MustInsert("bs", "", r)
		bs = append(bs, zorder.Item{ID: o.ID, Box: o.Box})
		bR = append(bR, r)
	}
	return store, as, bs, aR, bR
}

func BenchmarkE9Join(b *testing.B) {
	store, as, bs, aR, bR := joinSetup(300)
	q := query.New()
	xa, xb := q.Sys.Var("x"), q.Sys.Var("y")
	q.Sys.Overlap(xa, xb)
	q.From("x", "as").From("y", "bs")
	plan, err := query.Compile(q, store)
	if err != nil {
		b.Fatal(err)
	}
	space := zorder.NewSpace(bbox.Rect(0, 0, 1024, 1024))

	b.Run("pipeline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := plan.Run(store, nil, query.DefaultOptions); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("zorder", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			space.Join(as, bs, 32)
		}
	})
	b.Run("nested", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			n := 0
			for x := range aR {
				for y := range bR {
					if aR[x].Overlaps(bR[y]) {
						n++
					}
				}
			}
		}
	})
}

// ---- E10: compile-time scaling with variable count ----

func BenchmarkE10Compile(b *testing.B) {
	for _, n := range []int{2, 4, 6, 8} {
		s := constraint.NewSystem()
		vars := make([]*formula.Formula, n)
		for i := 0; i < n; i++ {
			vars[i] = s.Var(fmt.Sprintf("x%d", i))
		}
		c := s.Var("C")
		for i := 0; i+1 < n; i++ {
			s.Subset(vars[i], vars[i+1])
		}
		for i := 0; i < n; i++ {
			s.Overlap(vars[i], c)
		}
		s.Subset(vars[n-1], c)
		norm := s.Normalize()
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		b.Run(fmt.Sprintf("vars-%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := triangular.Compile(norm, order); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- E11: identical plan over the four index backends ----

func BenchmarkE11Indexes(b *testing.B) {
	for _, kind := range []spatialdb.IndexKind{spatialdb.Scan, spatialdb.RTree, spatialdb.PointRTree, spatialdb.Grid} {
		m := workload.GenMap(workload.MapConfig{Seed: 21, Roads: 60, Towns: 24, Interior: 24})
		store := spatialdb.NewStore(m.Config.Universe, kind)
		m.Populate(store)
		params := map[string]*region.Region{"C": m.Country, "A": m.Area}
		plan, err := query.Compile(query.Smuggler(), store)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(kind.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := plan.Run(store, params, query.DefaultOptions); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Microbenchmarks of the core algorithms ----

func BenchmarkBCF(b *testing.B) {
	x, y, z, w := formula.Var(0), formula.Var(1), formula.Var(2), formula.Var(3)
	f := formula.OrN(
		formula.And(formula.Not(x), y),
		formula.And(x, y),
		formula.AndN(x, z, formula.Not(w)),
		formula.And(formula.Not(z), w),
	)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bcf.BCF(f); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProjection(b *testing.B) {
	x, y, z := formula.Var(0), formula.Var(1), formula.Var(2)
	n := constraint.Normal{
		F: formula.Or(formula.Diff(x, y), formula.Diff(y, z)),
		G: []*formula.Formula{formula.And(x, z), formula.And(formula.Not(x), y)},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := triangular.Proj(n, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRegionOps(b *testing.B) {
	rng := workload.NewRNG(3)
	u := bbox.Rect(0, 0, 100, 100)
	regs := make([]*region.Region, 32)
	for i := range regs {
		regs[i] = workload.RandRegion(rng, u, 4)
	}
	b.Run("intersect", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			regs[i%32].Intersect(regs[(i+7)%32])
		}
	})
	b.Run("union", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			regs[i%32].Union(regs[(i+7)%32])
		}
	})
	b.Run("complement", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			regs[i%32].ComplementIn(u)
		}
	})
	b.Run("bbox-meet", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			regs[i%32].BoundingBox().Meet(regs[(i+7)%32].BoundingBox())
		}
	})
}

func BenchmarkRTree(b *testing.B) {
	rng := workload.NewRNG(11)
	boxes := make([]bbox.Box, 10000)
	for i := range boxes {
		x, y := rng.Range(0, 990), rng.Range(0, 990)
		boxes[i] = bbox.Rect(x, y, x+5, y+5)
	}
	b.Run("insert-10k", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr := rtree.New(2)
			for j, box := range boxes {
				if err := tr.Insert(box, int64(j)); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	tr := rtree.New(2)
	for j, box := range boxes {
		if err := tr.Insert(box, int64(j)); err != nil {
			b.Fatal(err)
		}
	}
	q := bbox.Rect(300, 300, 350, 350)
	b.Run("search", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr.SearchOverlap(q, func(int64) bool { return true })
		}
	})
}

func BenchmarkQueryCompile(b *testing.B) {
	store, _ := smugglerSetup(1)
	q := query.Smuggler()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := query.Compile(q, store); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E12/E14 and substrate extensions ----

func BenchmarkE12OrderPlanning(b *testing.B) {
	store, params := smugglerSetup(1)
	q := query.Smuggler()
	b.Run("static", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			query.SuggestOrder(q, store, params)
		}
	})
	b.Run("adaptive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := query.CompileAdaptive(q, store, query.AdaptiveOptions{Params: params}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE12AdaptiveExecution is the tracked adaptive-planning
// benchmark: the smuggler query executed under the best and worst static
// retrieval orders (found by measuring every permutation once), the
// static SuggestOrder heuristic, and the adaptive planner warmed with one
// observation per order. The acceptance shape: adaptive-warm matches the
// best order and beats the worst by well over 2×.
func BenchmarkE12AdaptiveExecution(b *testing.B) {
	store, params := smugglerSetup(4)
	base := query.Smuggler()
	epoch := store.Epoch()
	tuner := query.NewTuner(8)

	type ordered struct {
		plan       *query.Plan
		candidates int
	}
	var best, worst *ordered
	for _, p := range [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
		q := &query.Query{Sys: base.Sys}
		for _, i := range p {
			q.Retrieve = append(q.Retrieve, base.Retrieve[i])
		}
		plan, err := query.Compile(q, store)
		if err != nil {
			b.Fatal(err)
		}
		res, err := plan.Run(store, params, query.DefaultOptions)
		if err != nil {
			b.Fatal(err)
		}
		tuner.Observe("smuggler", plan.OrderKey(), epoch, res.Stats)
		o := &ordered{plan: plan, candidates: res.Stats.Candidates}
		if best == nil || o.candidates < best.candidates {
			best = o
		}
		if worst == nil || o.candidates > worst.candidates {
			worst = o
		}
	}
	adaptive, err := query.CompileAdaptive(base, store, query.AdaptiveOptions{
		Params: params, Tuner: tuner, TunerKey: "smuggler", Epoch: epoch,
	})
	if err != nil {
		b.Fatal(err)
	}
	suggested, err := query.Compile(query.SuggestOrder(base, store, params), store)
	if err != nil {
		b.Fatal(err)
	}

	run := func(plan *query.Plan) func(b *testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := plan.Run(store, params, query.DefaultOptions); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("best-order", run(best.plan))
	b.Run("worst-order", run(worst.plan))
	b.Run("suggested-order", run(suggested))
	b.Run("adaptive-warm", run(adaptive))
}

func BenchmarkE13RTreeBuild(b *testing.B) {
	rng := workload.NewRNG(31)
	entries := make([]rtree.Entry, 10000)
	for i := range entries {
		x, y := rng.Range(0, 990), rng.Range(0, 990)
		entries[i] = rtree.Entry{Box: bbox.Rect(x, y, x+5, y+5), ID: int64(i)}
	}
	b.Run("insert-quadratic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr := rtree.New(2, rtree.WithSplit(rtree.QuadraticSplit))
			for _, e := range entries {
				if err := tr.Insert(e.Box, e.ID); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("insert-linear", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr := rtree.New(2, rtree.WithSplit(rtree.LinearSplit))
			for _, e := range entries {
				if err := tr.Insert(e.Box, e.ID); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("bulk-STR", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := rtree.BulkLoad(2, entries); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkE14Parallel(b *testing.B) {
	store, params := smugglerSetup(4)
	plan, err := query.Compile(query.Smuggler(), store)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := plan.RunParallel(store, params, query.DefaultOptions, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkZOrderIndexSearch(b *testing.B) {
	store := spatialdb.NewStore(bbox.Rect(0, 0, 1000, 1000), spatialdb.ZOrderIdx)
	rng := workload.NewRNG(5)
	for i := 0; i < 5000; i++ {
		x, y := rng.Range(0, 990), rng.Range(0, 990)
		store.MustInsert("objs", "", region.FromBox(bbox.Rect(x, y, x+5, y+5)))
	}
	layer := store.Layer("objs")
	spec := bbox.RangeSpec{K: 2, Lower: bbox.Empty(2), Upper: bbox.Rect(100, 100, 400, 400)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		layer.Search(spec, func(spatialdb.Object) bool { return true })
	}
}

// ---- boolqd serving layer: cold compile vs plan-cache hit ----
//
// The service benchmark pair isolates what the plan cache buys a serving
// workload: "cold" is the full per-request pipeline a cache miss pays
// (normalize → parse → adaptive compile, boolqd's default -plan → run),
// "cached" is the hit path (normalize → cache lookup → run). The difference is the entire §3/§4
// compilation cost, amortized away for repeated queries.

const smugglerSrc = `
find T in towns, R in roads, B in states
given C, A
where A <= C; B <= C; R <= A | B | T;
      R & A != 0; R & T != 0; T !<= C
`

// BenchmarkServiceQueryCold is a plan-cache miss as boolqd serves it:
// POST /query through the server's handler, so every request pays body
// decoding, normalization, the cache miss, parsing, the adaptive compile,
// the run and the reply. The smuggler text is renamed per request (T0,
// T1, …): 2×DefaultCacheSize distinct texts cycle through the cache, so
// every request misses it, as every query_cold request does.
func BenchmarkServiceQueryCold(b *testing.B) {
	store, params := smugglerSetup(1)
	h := server.New(store, server.Options{}).Handler()
	bodies := make([][]byte, 2*server.DefaultCacheSize)
	for i := range bodies {
		text := strings.ReplaceAll(smugglerSrc, "T", fmt.Sprintf("T%d", i))
		bodies[i] = queryBody(text, params)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("POST", "/query", bytes.NewReader(bodies[i%len(bodies)])))
		if w.Code != http.StatusOK || !bytes.Contains(w.Body.Bytes(), []byte(`"cached": false`)) {
			b.Fatalf("status %d: %s", w.Code, w.Body.Bytes())
		}
	}
}

// queryBody is the POST /query body of text with params bound by their
// boxes.
func queryBody(text string, params map[string]*region.Region) []byte {
	ps := make(map[string]any, len(params))
	for name, r := range params {
		var boxes []map[string][]float64
		for _, bx := range r.Boxes() {
			boxes = append(boxes, map[string][]float64{"lo": bx.Lo, "hi": bx.Hi})
		}
		ps[name] = map[string]any{"boxes": boxes}
	}
	body, err := json.Marshal(map[string]any{"query": text, "params": ps})
	if err != nil {
		panic(err)
	}
	return body
}

func BenchmarkServiceQueryCached(b *testing.B) {
	store, params := smugglerSetup(1)
	cache := server.NewPlanCache(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		norm, err := lang.Normalize(smugglerSrc)
		if err != nil {
			b.Fatal(err)
		}
		plan, ok := cache.Get(norm, 0, store.Epoch())
		if !ok {
			q, err := lang.Parse(norm)
			if err != nil {
				b.Fatal(err)
			}
			if plan, err = query.Compile(q, store); err != nil {
				b.Fatal(err)
			}
			cache.Put(norm, 0, store.Epoch(), plan)
		}
		if _, err := plan.Run(store, params, query.DefaultOptions); err != nil {
			b.Fatal(err)
		}
	}
	if cache.Hits() < uint64(b.N-1) {
		b.Fatalf("expected ≥ %d cache hits, got %d", b.N-1, cache.Hits())
	}
}

// BenchmarkServiceCompileOnly is the cost the cache removes per hit.
func BenchmarkServiceCompileOnly(b *testing.B) {
	store, params := smugglerSetup(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q, err := lang.Parse(smugglerSrc)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := query.CompileAdaptive(q, store, query.AdaptiveOptions{Params: params}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileAdaptive4 is the compile a query_cold request pays: a
// 4-variable text in the E10 shape (containment/overlap chain, overlaps
// with the parameter, one disequation), 24 retrieval orders.
func BenchmarkCompileAdaptive4(b *testing.B) {
	store, params := smugglerSetup(1)
	q, err := lang.Parse(`find T in towns, B in states, R in roads, S in states given C
		where T <= B; B & R != 0; R <= S; T & C != 0; R & C != 0; B != S`)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := query.CompileAdaptive(q, store, query.AdaptiveOptions{Params: params}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileAdaptive5 is BenchmarkCompileAdaptive4 with a fifth
// binding: 120 retrieval orders, 80 (set, binding) steps and 31
// projections.
func BenchmarkCompileAdaptive5(b *testing.B) {
	store, params := smugglerSetup(1)
	q, err := lang.Parse(`find T in towns, B in states, R in roads, S in states, U in towns given C
		where T <= B; B & R != 0; R <= S; T & C != 0; R & C != 0; B != S; U <= S; U & R != 0`)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := query.CompileAdaptive(q, store, query.AdaptiveOptions{Params: params}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- bulk ingestion: Store.BulkInsert vs per-object Insert ----

// bulkBenchItems generates n disjoint-ish regions inside the default
// 1000×1000 universe.
func bulkBenchItems(n int) []spatialdb.BulkItem {
	rng := workload.NewRNG(77)
	items := make([]spatialdb.BulkItem, n)
	for i := range items {
		x, y := rng.Range(0, 980), rng.Range(0, 980)
		items[i] = spatialdb.BulkItem{
			Name: fmt.Sprintf("o%d", i),
			Reg:  region.FromBox(bbox.Rect(x, y, x+rng.Range(1, 10), y+rng.Range(1, 10))),
		}
	}
	return items
}

// bulkBenchBody renders items as the NDJSON objects:bulk body of a bulk
// load over the wire.
func bulkBenchBody(items []spatialdb.BulkItem) []byte {
	var body []byte
	for _, it := range items {
		bx := it.Reg.BoundingBox()
		body = fmt.Appendf(body, `{"name":%q,"boxes":[{"lo":[%v,%v],"hi":[%v,%v]}]}`+"\n",
			it.Name, bx.Lo[0], bx.Lo[1], bx.Hi[0], bx.Hi[1])
	}
	return body
}

// BenchmarkBulkInsert contrasts loading an R-tree layer one object at a
// time (n write-lock acquisitions, n Guttman insertions with quadratic
// splits, n epoch bumps) against one Store.BulkInsert call (one lock
// acquisition, one STR-packed build, one epoch bump), and against the
// same batch sent as one NDJSON POST /layers/{layer}/objects:bulk through
// the server's handler (reading and decoding the body on top).
func BenchmarkBulkInsert(b *testing.B) {
	universe := bbox.Rect(0, 0, 1000, 1000)
	for _, n := range []int{1000, 10000} {
		items := bulkBenchItems(n)
		b.Run(fmt.Sprintf("looped-%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				store := spatialdb.NewStore(universe, spatialdb.RTree)
				for _, it := range items {
					if _, err := store.Insert("objs", it.Name, it.Reg); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run(fmt.Sprintf("bulk-%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				store := spatialdb.NewStore(universe, spatialdb.RTree)
				rep, err := store.BulkInsert("objs", items, spatialdb.BulkAtomic)
				if err != nil {
					b.Fatal(err)
				}
				if rep.Inserted != n {
					b.Fatalf("inserted %d, want %d", rep.Inserted, n)
				}
			}
		})
		body := bulkBenchBody(items)
		b.Run(fmt.Sprintf("handler-%d", n), func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				h := server.New(spatialdb.NewStore(universe, spatialdb.RTree), server.Options{}).Handler()
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/layers/objs/objects:bulk", bytes.NewReader(body)))
				if w.Code != http.StatusOK {
					b.Fatalf("status %d: %s", w.Code, w.Body.String())
				}
			}
		})
	}
}

// ---- durable write path: WAL append cost per fsync policy ----

// BenchmarkWALAppend measures the append path of the write-ahead log
// under each fsync policy: "never" is the buffered frame+write alone,
// "interval" adds the background flusher's lock traffic, and "always"
// pays one fsync per record — the price of a durability guarantee on
// every acknowledged mutation.
func BenchmarkWALAppend(b *testing.B) {
	payload := make([]byte, 128)
	for _, policy := range []wal.Policy{wal.SyncNever, wal.SyncInterval, wal.SyncAlways} {
		b.Run(policy.String(), func(b *testing.B) {
			l, err := wal.Open(b.TempDir(), wal.Options{Policy: policy})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			b.SetBytes(int64(len(payload)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := l.Append(payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWALDurableInsert is the end-to-end mutation cost with the
// log attached: record encode + append (+ fsync under always) on top of
// the in-memory insert itself. Compare against BenchmarkBulkInsert's
// looped variant for the WAL-less baseline.
func BenchmarkWALDurableInsert(b *testing.B) {
	for _, policy := range []wal.Policy{wal.SyncNever, wal.SyncAlways} {
		b.Run(policy.String(), func(b *testing.B) {
			db, err := wal.OpenDB(b.TempDir(), wal.DBOptions{
				Kind:     spatialdb.RTree,
				Universe: bbox.Rect(0, 0, 1e6, 1e6),
				Log:      wal.Options{Policy: policy},
				// No background checkpoints: measure the append path only.
				CheckpointInterval: -1, CheckpointBytes: -1,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			store := db.Store()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x := float64(i % 999000)
				if _, err := store.Insert("bench", "", region.FromBox(bbox.Rect(x, 0, x+1, 1))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
