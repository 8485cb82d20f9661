package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/bbox"
	"repro/internal/query"
	"repro/internal/region"
	"repro/internal/rtree"
	"repro/internal/spatialdb"
	"repro/internal/workload"
)

// E12Ordering ablates the retrieval order the paper picks "arbitrarily"
// (§2): every permutation of the smuggler query's variables is executed,
// alongside the two planners, which share one cost model: static
// (SuggestOrder — a greedy front-to-back walk) and adaptive
// (CompileAdaptive — every order, the planner boolqd serves; here cold:
// histogram estimates with parameter values, no tuner feedback).
func E12Ordering() Table {
	m := workload.GenMap(workload.MapConfig{Seed: 42})
	store := spatialdb.NewStore(m.Config.Universe, spatialdb.RTree)
	m.Populate(store)
	params := map[string]*region.Region{"C": m.Country, "A": m.Area}
	base := query.Smuggler()

	t := Table{
		ID:     "E12",
		Title:  "retrieval-order ablation (smuggler query)",
		Paper:  "the paper picks the order arbitrarily; this measures how much it matters",
		Header: []string{"order", "candidates", "solutions", "time-ms", "chosen-by"},
	}
	perms := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	run := func(q *query.Query) (string, int, int, time.Duration) {
		plan, err := query.Compile(q, store)
		if err != nil {
			panic(err)
		}
		start := time.Now()
		res, err := plan.Run(store, params, query.DefaultOptions)
		if err != nil {
			panic(err)
		}
		return plan.OrderKey(), res.Stats.Candidates, res.Stats.Solutions, time.Since(start)
	}

	staticQ := query.SuggestOrder(base, store, params)
	adaptive, err := query.CompileAdaptive(base, store, query.AdaptiveOptions{Params: params})
	if err != nil {
		panic(err)
	}
	staticName := orderName(staticQ)
	adaptiveName := adaptive.OrderKey()

	for _, p := range perms {
		q := &query.Query{Sys: base.Sys}
		for _, i := range p {
			q.Retrieve = append(q.Retrieve, base.Retrieve[i])
		}
		name, cand, sols, el := run(q)
		chosen := ""
		if name == staticName {
			chosen += "static "
		}
		if name == adaptiveName {
			chosen += "adaptive"
		}
		t.Rows = append(t.Rows, []string{name, itoa(cand), itoa(sols), msString(el),
			strings.TrimSpace(chosen)})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("static planner picked %s; adaptive planner picked %s", staticName, adaptiveName))
	return t
}

func orderName(q *query.Query) string {
	var names []string
	for _, b := range q.Retrieve {
		names = append(names, b.Var)
	}
	return strings.Join(names, "→")
}

// E13RTreeConstruction ablates the R-tree build strategies: incremental
// insertion with quadratic vs linear splits vs STR bulk loading — build
// time and query cost (nodes touched).
func E13RTreeConstruction() Table {
	rng := workload.NewRNG(31)
	n := 20000
	entries := make([]rtree.Entry, n)
	for i := 0; i < n; i++ {
		x, y := rng.Range(0, 990), rng.Range(0, 990)
		entries[i] = rtree.Entry{Box: bbox.Rect(x, y, x+rng.Range(1, 8), y+rng.Range(1, 8)), ID: int64(i)}
	}
	queries := make([]bbox.Box, 50)
	for i := range queries {
		x, y := rng.Range(0, 900), rng.Range(0, 900)
		queries[i] = bbox.Rect(x, y, x+50, y+50)
	}

	t := Table{
		ID:     "E13",
		Title:  "R-tree construction ablation (20k boxes, 50 window queries)",
		Paper:  "Guttman splits [6] vs STR packing — substrate design choice",
		Header: []string{"construction", "build-ms", "height", "avg-nodes-touched", "results-agree"},
	}
	type variant struct {
		name  string
		build func() *rtree.Tree
	}
	variants := []variant{
		{"insert/quadratic", func() *rtree.Tree {
			tr := rtree.New(2, rtree.WithSplit(rtree.QuadraticSplit))
			for _, e := range entries {
				if err := tr.Insert(e.Box, e.ID); err != nil {
					panic(err)
				}
			}
			return tr
		}},
		{"insert/linear", func() *rtree.Tree {
			tr := rtree.New(2, rtree.WithSplit(rtree.LinearSplit))
			for _, e := range entries {
				if err := tr.Insert(e.Box, e.ID); err != nil {
					panic(err)
				}
			}
			return tr
		}},
		{"bulk/STR", func() *rtree.Tree {
			tr, err := rtree.BulkLoad(2, entries)
			if err != nil {
				panic(err)
			}
			return tr
		}},
	}
	baseline := -1
	for _, v := range variants {
		start := time.Now()
		tr := v.build()
		buildT := time.Since(start)
		touched, results := 0, 0
		for _, q := range queries {
			touched += tr.SearchOverlap(q, func(int64) bool {
				results++
				return true
			})
		}
		if baseline < 0 {
			baseline = results
		}
		t.Rows = append(t.Rows, []string{
			v.name, msString(buildT), itoa(tr.Height()),
			fmt.Sprintf("%.1f", float64(touched)/float64(len(queries))),
			fmt.Sprintf("%v", results == baseline),
		})
	}
	return t
}

// E14Parallel measures the parallel executor's speedup on a scaled
// smuggler workload — an engineering extension beyond the paper.
func E14Parallel() Table {
	store, params := parallelFixture()
	plan, err := query.Compile(query.Smuggler(), store)
	if err != nil {
		panic(err)
	}
	t := Table{
		ID:     "E14",
		Title:  "parallel execution speedup (extension)",
		Paper:  "not in the paper; first-step fan-out over goroutines",
		Header: []string{"workers", "time-ms", "speedup", "solutions"},
	}
	var base time.Duration
	for _, w := range []int{1, 2, 4, 8} {
		start := time.Now()
		res, err := plan.RunParallel(store, params, query.DefaultOptions, w)
		if err != nil {
			panic(err)
		}
		el := time.Since(start)
		if w == 1 {
			base = el
		}
		t.Rows = append(t.Rows, []string{
			itoa(w), msString(el),
			fmt.Sprintf("%.2fx", float64(base)/float64(el)),
			itoa(res.Stats.Solutions),
		})
	}
	return t
}

func parallelFixture() (*spatialdb.Store, map[string]*region.Region) {
	m := workload.GenMap(workload.MapConfig{Seed: 42, Towns: 48, Interior: 48, Roads: 120})
	store := spatialdb.NewStore(m.Config.Universe, spatialdb.RTree)
	m.Populate(store)
	return store, map[string]*region.Region{"C": m.Country, "A": m.Area}
}
