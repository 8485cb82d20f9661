package query

import (
	"math"
	"math/bits"
	"slices"

	"repro/internal/region"
	"repro/internal/spatialdb"
	"repro/internal/triangular"
)

// SuggestOrder reorders the query's retrieval bindings greedily and
// returns the reordered copy. The paper picks its retrieval order
// "arbitrarily" (§2); the order strongly affects how early the triangular
// form can prune. SuggestOrder ranks by CompileAdaptive's cost model
// (costModel) over the caller's parameters, but instead of searching every
// order it walks front to back and places, at each position, the binding
// whose step adds the fewest expected candidates to the prefix, the
// earliest binding on a tie. It solves only the steps that walk looks at,
// with one residual per eliminated set, so it stays cheap where the
// subset search would not: CompileAdaptive uses it for queries with more
// than maxAdaptivePermute retrieval variables. The walk holds the store's
// read guard. Experiment E12 measures it against all permutations.
//
// A query whose own order cannot compile — a retrieval variable in no
// constraint or retrieved twice, or no compilable step at some position —
// comes back unchanged, so Compile reports its error.
func SuggestOrder(q *Query, store *spatialdb.Store, params map[string]*region.Region) *Query {
	n := len(q.Retrieve)
	if n < 2 {
		return q
	}
	g := &greedyOrder{q: q, full: 1<<n - 1, ids: make([]int, n), res: map[int]triangular.Elim{}}
	for j, b := range q.Retrieve {
		v, ok := q.Sys.Vars.Lookup(b.Var)
		if !ok || slices.Contains(g.ids[:j], v) {
			return q
		}
		g.ids[j] = v
	}
	g.res[0] = triangular.Start(q.Sys.Normalize())

	store.RLock()
	defer store.RUnlock()
	var m costModel
	m.init(q, store, params)
	out := &Query{Sys: q.Sys, Retrieve: make([]Binding, 0, n)}
	placed, cost, width, live := 0, 0.0, 1.0, true
	for range n {
		best, bestCost := -1, math.Inf(1)
		var bestStep elimStep
		for j := range n {
			if placed&(1<<j) != 0 {
				continue
			}
			es, ok := g.step(placed|1<<j, j)
			if !ok {
				continue
			}
			c := cost
			if live {
				saved := m.envBox[es.box.Var]
				c, _, _ = m.estimate(&es, j, cost, width)
				m.bind(es.box.Var, saved)
			}
			if best < 0 || c < bestCost {
				best, bestCost, bestStep = j, c, es
			}
		}
		if best < 0 {
			return q
		}
		if live {
			cost, width, live = m.estimate(&bestStep, best, cost, width)
		}
		placed |= 1 << best
		out.Retrieve = append(out.Retrieve, q.Retrieve[best])
	}
	return out
}

// greedyOrder is SuggestOrder's lazy share of CompileAdaptive's phase 1:
// a residual per eliminated set, computed when the walk first needs it.
// Sets of bindings are bitmasks over q.Retrieve.
type greedyOrder struct {
	q    *Query
	full int
	ids  []int
	res  map[int]triangular.Elim // F nil: the set's residual failed
	scr  triangular.Scratch

	diseqs []DiseqBoxPlan // the slab the templates' disequation lists are cut from
}

// residual returns the residual after eliminating the bindings in set.
// Residuals are canonical (package triangular), so eliminating the set's
// highest binding last gives the one any order would.
func (g *greedyOrder) residual(set int) (triangular.Elim, bool) {
	if e, ok := g.res[set]; ok {
		return e, e.F != nil
	}
	last := bits.Len(uint(set)) - 1
	var e triangular.Elim
	if prev, ok := g.residual(set &^ (1 << last)); ok {
		if _, rest, err := g.scr.Eliminate(prev, g.ids[last]); err == nil {
			e = rest
		}
	}
	g.res[set] = e
	return e, e.F != nil
}

// step returns binding j's elimination when it is placed in front of
// every binding outside placed (placed includes j), as orderSearch.step
// does. Like phase 1, it projects only when the target set has no
// residual yet, and solves the step alone otherwise.
func (g *greedyOrder) step(placed, j int) (elimStep, bool) {
	before := g.full &^ placed
	e, ok := g.residual(before)
	if !ok {
		return elimStep{}, false
	}
	var st triangular.Step
	var err error
	if _, known := g.res[before|1<<j]; known {
		st, err = g.scr.Solve(e, g.ids[j])
	} else {
		var rest triangular.Elim
		if st, rest, err = g.scr.Eliminate(e, g.ids[j]); err == nil {
			g.res[before|1<<j] = rest
		}
	}
	if err != nil {
		return elimStep{}, false
	}
	sp, err := stepBoxPlan(st, g.q.Retrieve[j], &g.scr.Memo, &g.diseqs)
	if err != nil {
		return elimStep{}, false
	}
	return elimStep{tri: st, box: sp, ok: true}, true
}
