package query

import (
	"math"

	"repro/internal/bbox"
	"repro/internal/boolalg"
	"repro/internal/region"
	"repro/internal/spatialdb"
)

// SuggestOrder reorders the query's retrieval bindings with a greedy
// selectivity heuristic and returns the reordered copy. The paper picks
// its retrieval order "arbitrarily" (§2); the order strongly affects how
// early the triangular form can prune, so this planner prefers, at each
// position, the variable that is
//
//  1. most connected to what is already bound (parameters and earlier
//     variables) — more binding constraints mean a tighter range query —
//     and among equally connected variables,
//  2. drawn from the smallest layer (fewer candidates to extend).
//
// The heuristic needs only the store's layer sizes, no data statistics.
// Experiment E12 measures its effect against all permutations.
func SuggestOrder(q *Query, store *spatialdb.Store) *Query {
	if len(q.Retrieve) < 2 {
		return q
	}
	// Variable ids per binding and the parameter set.
	ids := make([]int, len(q.Retrieve))
	for i, b := range q.Retrieve {
		ids[i], _ = q.Sys.Vars.Lookup(b.Var)
	}
	bound := map[int]bool{}
	for _, p := range paramIDs(q) {
		bound[p] = true
	}

	// Layer sizes, read once under the guard (and without store.Layer,
	// which would create layers the query merely names). A missing layer
	// must plan as infinitely large, not zero: size 0 would make it
	// maximally attractive to the greedy order, silently front-loading a
	// step that can only fail. Compile rejects the query anyway; until
	// then the order keeps the existing layers' ranking intact.
	sizes := make([]int, len(q.Retrieve))
	store.RLock()
	for i, b := range q.Retrieve {
		if l, ok := store.LayerIfExists(b.Layer); ok {
			sizes[i] = l.Len()
		} else {
			sizes[i] = math.MaxInt
		}
	}
	store.RUnlock()

	remaining := make([]int, len(ids)) // indices into q.Retrieve
	for i := range remaining {
		remaining[i] = i
	}
	var orderIdx []int
	for len(remaining) > 0 {
		bestPos, bestConn, bestSize := -1, -1, 0
		for pos, ri := range remaining {
			v := ids[ri]
			conn := connectivity(q, v, bound)
			size := sizes[ri]
			better := conn > bestConn ||
				(conn == bestConn && size < bestSize) ||
				(conn == bestConn && size == bestSize && bestPos > pos)
			if bestPos < 0 || better {
				bestPos, bestConn, bestSize = pos, conn, size
			}
		}
		ri := remaining[bestPos]
		orderIdx = append(orderIdx, ri)
		bound[ids[ri]] = true
		remaining = append(remaining[:bestPos], remaining[bestPos+1:]...)
	}

	out := &Query{Sys: q.Sys}
	for _, ri := range orderIdx {
		out.Retrieve = append(out.Retrieve, q.Retrieve[ri])
	}
	return out
}

// connectivity counts constraints that mention v and otherwise only bound
// variables — the constraints that become range-query content when v is
// retrieved next.
func connectivity(q *Query, v int, bound map[int]bool) int {
	n := 0
	for _, c := range q.Sys.Cons {
		usesV := c.Lhs.Uses(v) || c.Rhs.Uses(v)
		if !usesV {
			continue
		}
		grounded := true
		for _, fv := range append(c.Lhs.FreeVars(), c.Rhs.FreeVars()...) {
			if fv != v && !bound[fv] {
				grounded = false
				break
			}
		}
		if grounded {
			n++
		}
	}
	return n
}

// SuggestOrderSampled chooses the retrieval order with the bound
// parameter values in hand: it enumerates the permutations of the
// retrieval variables (the paper expects few variables, so n! stays tiny),
// estimates each order's cost by sampling per-level fanouts against the
// real layers, and returns the cheapest. The cost model is the expected
// number of candidates the executor examines:
//
//	cost(order) = f1 + f1*f2 + f1*f2*f3 + …
//
// where fi is the average number of survivors of level i's range query
// plus exact filter, measured on a small sample of bound prefixes. Falls
// back to the static SuggestOrder above 5 retrieval variables.
func SuggestOrderSampled(q *Query, store *spatialdb.Store, params map[string]*region.Region) (*Query, error) {
	n := len(q.Retrieve)
	if n < 2 {
		return q, nil
	}
	if n > 5 {
		return SuggestOrder(q, store), nil
	}
	alg := region.NewAlgebra(store.Universe())
	baseEnv, err := bindParams(q, alg, params)
	if err != nil {
		return nil, err
	}

	var best *Query
	bestCost := 0.0
	for _, perm := range permutations(n) {
		cand := &Query{Sys: q.Sys}
		for _, i := range perm {
			cand.Retrieve = append(cand.Retrieve, q.Retrieve[i])
		}
		cost, err := estimateCost(cand, store, alg, baseEnv)
		if err != nil {
			return nil, err
		}
		if best == nil || cost < bestCost {
			best, bestCost = cand, cost
		}
	}
	return best, nil
}

// estimateCost samples per-level fanouts for one candidate order.
// sampleCap bounds the prefixes carried between levels so the estimate
// stays cheap on large layers.
const sampleCap = 4

// sampleScanCap bounds how many candidates one sampling range query may
// visit. Estimation runs at plan time under the store's read guard with
// no execCtl to poll, so the scan must be finite by construction — an
// unbounded Search over a huge layer would pin the guard and stall
// writers for the whole scan.
const sampleScanCap = 1024

func estimateCost(q *Query, store *spatialdb.Store, alg *region.Algebra, baseEnv []boolalg.Element) (float64, error) {
	plan, err := Compile(q, store)
	if err != nil {
		return 0, err
	}
	if plan.Form.Unsat || !plan.Form.Ground.Satisfied(alg, baseEnv) {
		return 0, nil
	}
	// Sample under the read guard so concurrent writers cannot interleave
	// with the fanout measurements.
	store.RLock()
	defer store.RUnlock()
	layers, err := resolveLayers(store, stepLayerNames(plan))
	if err != nil {
		return 0, err
	}
	k := store.K()

	type prefix struct {
		env    []boolalg.Element
		envBox []bbox.Box
	}
	sample := []prefix{{env: baseEnv, envBox: envBoxes(alg, baseEnv)}}
	cost, width := 0.0, 1.0
	for i, sp := range plan.Steps {
		step := plan.Form.Steps[i]
		total, next := 0, []prefix{}
		for _, pre := range sample {
			spec, ok := sp.Spec(k, pre.envBox)
			if !ok {
				continue
			}
			scanned := 0
			//lint:ignore ctxpoll bounded by sampleScanCap candidates per prefix; plan-time estimation has no execCtl to poll
			layers[i].Search(spec, func(o spatialdb.Object) bool {
				scanned++
				if scanned > sampleScanCap {
					return false
				}
				if !step.Satisfied(alg, pre.env, o.Reg) {
					return true
				}
				total++
				if len(next) < sampleCap {
					env := append([]boolalg.Element(nil), pre.env...)
					env[sp.Var] = o.Reg
					envBox := append([]bbox.Box(nil), pre.envBox...)
					envBox[sp.Var] = o.Box
					next = append(next, prefix{env: env, envBox: envBox})
				}
				return true
			})
		}
		if len(sample) == 0 || total == 0 {
			return cost, nil // dead end: remaining levels cost nothing
		}
		fanout := float64(total) / float64(len(sample))
		width *= fanout
		cost += width
		sample = next
	}
	return cost, nil
}

// permutations returns all permutations of 0..n-1 (n ≤ 5 here).
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
